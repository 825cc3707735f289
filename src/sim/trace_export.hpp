// CSV export of simulation traces, for plotting and offline analysis with
// external tooling (pandas, gnuplot, ...).  Two tables:
//
//   intervals.csv: index,start,end,cpu_action,cpu_task,cpu_busy,
//                  copy_out_task,copy_out,copy_in_task,copy_in_outcome,
//                  copy_in,dma_busy
//                  plus a last line `# aborted` when the simulation hit its
//                  interval budget (Trace::aborted)
//   jobs.csv:      task,seq,release,ready,copy_in_start,exec_start,
//                  completion,response,deadline_miss,urgent,cancellations
#pragma once

#include <iosfwd>

#include "rt/task.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {

/// The line that closes intervals.csv for an aborted trace.
inline constexpr const char* kAbortedLine = "# aborted";

/// Writes the per-interval table (header included), closed by the
/// `# aborted` line when `trace.aborted`.
void export_intervals_csv(const rt::TaskSet& tasks, const Trace& trace,
                          std::ostream& out);

/// Writes the per-job table (header included).  Incomplete jobs get empty
/// cells for the missing timestamps.
void export_jobs_csv(const rt::TaskSet& tasks, const Trace& trace,
                     std::ostream& out);

}  // namespace mcs::sim
