#include "sim/trace_export.hpp"

#include <ostream>

namespace mcs::sim {

namespace {

const char* action_name(CpuAction action) {
  switch (action) {
    case CpuAction::kIdle:
      return "idle";
    case CpuAction::kExecute:
      return "execute";
    case CpuAction::kUrgentExecute:
      return "urgent";
  }
  return "?";
}

const char* outcome_name(CopyInOutcome outcome) {
  switch (outcome) {
    case CopyInOutcome::kNone:
      return "none";
    case CopyInOutcome::kCompleted:
      return "completed";
    case CopyInOutcome::kCancelled:
      return "cancelled";
    case CopyInOutcome::kDiscarded:
      return "discarded";
  }
  return "?";
}

void put_job(const rt::TaskSet& tasks, const std::optional<JobId>& job,
             std::ostream& out) {
  if (job) {
    out << tasks[job->task].name << '#' << job->seq;
  }
}

void put_time(rt::Time t, std::ostream& out) {
  if (t != rt::kTimeMax) {
    out << t;
  }
}

}  // namespace

void export_intervals_csv(const rt::TaskSet& tasks, const Trace& trace,
                          std::ostream& out) {
  out << "index,start,end,cpu_action,cpu_task,cpu_busy,copy_out_task,"
         "copy_out,copy_in_task,copy_in_outcome,copy_in,dma_busy\n";
  for (const IntervalRecord& rec : trace.intervals) {
    out << rec.index << ',' << rec.start << ',' << rec.end << ','
        << action_name(rec.cpu_action) << ',';
    put_job(tasks, rec.cpu_job, out);
    out << ',' << rec.cpu_busy << ',';
    put_job(tasks, rec.copy_out_job, out);
    out << ',' << rec.copy_out_duration << ',';
    put_job(tasks, rec.copy_in_job, out);
    out << ',' << outcome_name(rec.copy_in_outcome) << ','
        << rec.copy_in_duration << ',' << rec.dma_busy << '\n';
  }
  if (trace.aborted) {
    out << kAbortedLine << '\n';
  }
}

void export_jobs_csv(const rt::TaskSet& tasks, const Trace& trace,
                     std::ostream& out) {
  out << "task,seq,release,ready,copy_in_start,exec_start,completion,"
         "response,deadline_miss,urgent,cancellations\n";
  for (const JobRecord& job : trace.jobs) {
    out << tasks[job.id.task].name << ',' << job.id.seq << ','
        << job.release << ',';
    put_time(job.ready_time, out);
    out << ',';
    put_time(job.copy_in_start, out);
    out << ',';
    put_time(job.exec_start, out);
    out << ',';
    put_time(job.completion, out);
    out << ',';
    if (job.completed()) {
      out << job.response_time();
    }
    out << ',' << (job.missed_deadline() ? 1 : 0) << ','
        << (job.became_urgent ? 1 : 0) << ',' << job.copy_in_cancellations
        << '\n';
  }
}

}  // namespace mcs::sim
