// Reads traces back from the CSV pair written by trace_export.hpp.
//
// Inverse of export_intervals_csv / export_jobs_csv: given the task set
// the trace was recorded against, reconstructs a sim::Trace suitable for
// the protocol audit (check/trace_audit.hpp) and the metrics/gantt passes.
// The `# aborted` line closing intervals.csv sets Trace::aborted; without
// it the trace counts as one that ran to completion.  Absolute deadlines
// are rebuilt as release + D_i;
// the derived response/deadline-miss columns are ignored.  Fields are
// comma-separated without quoting, exactly as the exporter writes them.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "rt/task.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {

/// Thrown on malformed input; the message carries the file kind and the
/// 1-based line number.
class TraceParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses the exporter's intervals.csv + jobs.csv pair.  Job references
/// ("<task-name>#<seq>") are resolved against `tasks`; unknown task names
/// or malformed rows throw TraceParseError.
Trace import_trace_csv(const rt::TaskSet& tasks, std::istream& intervals_csv,
                       std::istream& jobs_csv);

/// File-path convenience wrapper.
Trace import_trace_csv_files(const rt::TaskSet& tasks,
                             const std::string& intervals_path,
                             const std::string& jobs_path);

}  // namespace mcs::sim
