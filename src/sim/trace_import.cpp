#include "sim/trace_import.hpp"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/trace_export.hpp"

namespace mcs::sim {

namespace {

[[noreturn]] void fail(const char* kind, std::size_t line,
                       const std::string& message) {
  throw TraceParseError(std::string(kind) + " line " + std::to_string(line) +
                        ": " + message);
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string current;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  cells.push_back(current);
  return cells;
}

class NameTable {
 public:
  explicit NameTable(const rt::TaskSet& tasks) {
    for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
      index_.emplace(tasks[i].name, i);
    }
  }

  rt::TaskIndex resolve(const std::string& name, const char* kind,
                        std::size_t line) const {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      fail(kind, line, "unknown task '" + name + "'");
    }
    return it->second;
  }

 private:
  std::unordered_map<std::string, rt::TaskIndex> index_;
};

rt::Time parse_time(const std::string& cell, const char* kind,
                    std::size_t line) {
  if (cell.empty()) {
    return rt::kTimeMax;  // exporter omits kTimeMax fields
  }
  char* end = nullptr;
  const long long value = std::strtoll(cell.c_str(), &end, 10);
  if (end != cell.c_str() + cell.size()) {
    fail(kind, line, "malformed time value '" + cell + "'");
  }
  return static_cast<rt::Time>(value);
}

std::uint64_t parse_count(const std::string& cell, const char* kind,
                          std::size_t line) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(cell.c_str(), &end, 10);
  if (cell.empty() || end != cell.c_str() + cell.size()) {
    fail(kind, line, "malformed count '" + cell + "'");
  }
  return value;
}

std::optional<JobId> parse_job(const NameTable& names,
                               const std::string& cell, const char* kind,
                               std::size_t line) {
  if (cell.empty()) {
    return std::nullopt;
  }
  const std::size_t hash = cell.rfind('#');
  if (hash == std::string::npos || hash + 1 == cell.size()) {
    fail(kind, line, "malformed job reference '" + cell + "'");
  }
  JobId id;
  id.task = names.resolve(cell.substr(0, hash), kind, line);
  id.seq = parse_count(cell.substr(hash + 1), kind, line);
  return id;
}

CpuAction parse_action(const std::string& cell, std::size_t line) {
  if (cell == "idle") return CpuAction::kIdle;
  if (cell == "execute") return CpuAction::kExecute;
  if (cell == "urgent") return CpuAction::kUrgentExecute;
  fail("intervals.csv", line, "unknown cpu action '" + cell + "'");
}

CopyInOutcome parse_outcome(const std::string& cell, std::size_t line) {
  if (cell == "none") return CopyInOutcome::kNone;
  if (cell == "completed") return CopyInOutcome::kCompleted;
  if (cell == "cancelled") return CopyInOutcome::kCancelled;
  if (cell == "discarded") return CopyInOutcome::kDiscarded;
  fail("intervals.csv", line, "unknown copy-in outcome '" + cell + "'");
}

}  // namespace

Trace import_trace_csv(const rt::TaskSet& tasks, std::istream& intervals_csv,
                       std::istream& jobs_csv) {
  const NameTable names(tasks);
  Trace trace;

  std::string line;
  std::size_t line_no = 0;
  bool header = true;
  while (std::getline(intervals_csv, line)) {
    ++line_no;
    if (header) {
      header = false;  // column layout is fixed; skip the header row
      continue;
    }
    if (line.empty()) {
      continue;
    }
    if (trace.aborted) {
      fail("intervals.csv", line_no, "row after the aborted line");
    }
    if (line.front() == '#') {
      if (line.back() == '\r') line.pop_back();
      if (line != kAbortedLine) {
        fail("intervals.csv", line_no, "unknown comment line '" + line + "'");
      }
      trace.aborted = true;
      continue;
    }
    const std::vector<std::string> cells = split_csv(line);
    if (cells.size() != 12) {
      fail("intervals.csv", line_no,
           "expected 12 columns, got " + std::to_string(cells.size()));
    }
    IntervalRecord rec;
    rec.index = static_cast<std::size_t>(
        parse_count(cells[0], "intervals.csv", line_no));
    rec.start = parse_time(cells[1], "intervals.csv", line_no);
    rec.end = parse_time(cells[2], "intervals.csv", line_no);
    rec.cpu_action = parse_action(cells[3], line_no);
    rec.cpu_job = parse_job(names, cells[4], "intervals.csv", line_no);
    rec.cpu_busy = parse_time(cells[5], "intervals.csv", line_no);
    rec.copy_out_job = parse_job(names, cells[6], "intervals.csv", line_no);
    rec.copy_out_duration = parse_time(cells[7], "intervals.csv", line_no);
    rec.copy_in_job = parse_job(names, cells[8], "intervals.csv", line_no);
    rec.copy_in_outcome = parse_outcome(cells[9], line_no);
    rec.copy_in_duration = parse_time(cells[10], "intervals.csv", line_no);
    rec.dma_busy = parse_time(cells[11], "intervals.csv", line_no);
    trace.intervals.push_back(rec);
  }

  line_no = 0;
  header = true;
  while (std::getline(jobs_csv, line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> cells = split_csv(line);
    if (cells.size() != 11) {
      fail("jobs.csv", line_no,
           "expected 11 columns, got " + std::to_string(cells.size()));
    }
    JobRecord job;
    job.id.task = names.resolve(cells[0], "jobs.csv", line_no);
    job.id.seq = parse_count(cells[1], "jobs.csv", line_no);
    job.release = parse_time(cells[2], "jobs.csv", line_no);
    job.ready_time = parse_time(cells[3], "jobs.csv", line_no);
    job.absolute_deadline = job.release + tasks[job.id.task].deadline;
    job.copy_in_start = parse_time(cells[4], "jobs.csv", line_no);
    job.exec_start = parse_time(cells[5], "jobs.csv", line_no);
    job.completion = parse_time(cells[6], "jobs.csv", line_no);
    // cells[7] (response) and cells[8] (deadline_miss) are derived.
    job.became_urgent = cells[9] == "1";
    job.copy_in_cancellations = static_cast<std::uint32_t>(
        parse_count(cells[10], "jobs.csv", line_no));
    trace.jobs.push_back(job);
  }

  return trace;
}

Trace import_trace_csv_files(const rt::TaskSet& tasks,
                             const std::string& intervals_path,
                             const std::string& jobs_path) {
  std::ifstream intervals(intervals_path);
  if (!intervals) {
    throw TraceParseError("cannot open " + intervals_path);
  }
  std::ifstream jobs(jobs_path);
  if (!jobs) {
    throw TraceParseError("cannot open " + jobs_path);
  }
  return import_trace_csv(tasks, intervals, jobs);
}

}  // namespace mcs::sim
