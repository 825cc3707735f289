#include "check/trace_audit.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace mcs::check {

namespace {

using rt::Time;
using sim::CopyInOutcome;
using sim::CpuAction;
using sim::IntervalRecord;
using sim::JobId;
using sim::JobRecord;
using sim::Protocol;
using sim::Trace;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

std::string interval_label(std::size_t k) {
  return "interval " + std::to_string(k);
}

std::string job_label(const rt::TaskSet& tasks, const JobId& id) {
  return "job " + tasks[id.task].name + "#" + std::to_string(id.seq);
}

bool cancellation_outcome(CopyInOutcome outcome) {
  return outcome == CopyInOutcome::kCancelled ||
         outcome == CopyInOutcome::kDiscarded;
}

/// True when some latency-sensitive release of a task with strictly
/// higher priority than `cancelled_prio` lands in (after, upto] — the R3
/// trigger the cancellation must answer to.
bool justifying_ls_release(const rt::TaskSet& tasks, const Trace& trace,
                           rt::Priority cancelled_prio, Time after,
                           Time upto) {
  for (const JobRecord& job : trace.jobs) {
    const rt::Task& task = tasks[job.id.task];
    if (!task.latency_sensitive || task.priority >= cancelled_prio) {
      continue;
    }
    if (job.release > after && job.release <= upto) {
      return true;
    }
  }
  return false;
}

}  // namespace

CheckReport audit_trace(const rt::TaskSet& tasks, Protocol protocol,
                        const Trace& trace) {
  CheckReport report;
  const bool interval_protocol = protocol != Protocol::kNonPreemptive;

  // --- MCS-P001: interval sequencing (Definition 1) -------------------------
  for (std::size_t k = 0; k < trace.intervals.size(); ++k) {
    const IntervalRecord& rec = trace.intervals[k];
    if (rec.end < rec.start) {
      report.add("MCS-P001", Severity::kError, interval_label(k),
                 "ends before it starts");
    }
    if (k > 0 && rec.start < trace.intervals[k - 1].end) {
      report.add("MCS-P001", Severity::kError, interval_label(k),
                 "overlaps its predecessor");
    }
  }

  // --- Interval-level rules R2/R3/R6 ----------------------------------------
  for (std::size_t k = 0; interval_protocol && k < trace.intervals.size();
       ++k) {
    const IntervalRecord& rec = trace.intervals[k];

    // MCS-P002: R6 — the interval spans exactly the longer of the two
    // engines' work.
    if (rec.end - rec.start != std::max(rec.cpu_busy, rec.dma_busy)) {
      report.add("MCS-P002", Severity::kError, interval_label(k),
                 "length " + std::to_string(rec.end - rec.start) +
                     " != max(cpu " + std::to_string(rec.cpu_busy) +
                     ", dma " + std::to_string(rec.dma_busy) + ")");
    }

    // MCS-P003: R2 — DMA time decomposes into copy-out then copy-in, and
    // each transfer matches the owning task's tick parameters.
    if (rec.dma_busy != rec.copy_out_duration + rec.copy_in_duration) {
      report.add("MCS-P003", Severity::kError, interval_label(k),
                 "DMA busy time != copy-out + copy-in durations");
    }
    if (rec.copy_out_job &&
        rec.copy_out_duration != tasks[rec.copy_out_job->task].copy_out) {
      report.add("MCS-P003", Severity::kError, interval_label(k),
                 "copy-out duration differs from " +
                     job_label(tasks, *rec.copy_out_job) +
                     "'s copy-out parameter");
    }
    if (!rec.copy_out_job && rec.copy_out_duration != 0) {
      report.add("MCS-P003", Severity::kError, interval_label(k),
                 "copy-out time without a copy-out job");
    }
    if (rec.copy_in_job) {
      const Time full = tasks[rec.copy_in_job->task].copy_in;
      switch (rec.copy_in_outcome) {
        case CopyInOutcome::kNone:
          report.add("MCS-P012", Severity::kError, interval_label(k),
                     "copy-in job recorded with outcome `none`");
          break;
        case CopyInOutcome::kCompleted:
        case CopyInOutcome::kDiscarded:
          if (rec.copy_in_duration != full) {
            report.add("MCS-P003", Severity::kError, interval_label(k),
                       "completed copy-in duration differs from " +
                           job_label(tasks, *rec.copy_in_job) +
                           "'s copy-in parameter");
          }
          break;
        case CopyInOutcome::kCancelled:
          if (rec.copy_in_duration >= full) {
            report.add("MCS-P003", Severity::kError, interval_label(k),
                       "cancelled copy-in spent the full transfer time");
          }
          break;
      }
    } else if (rec.copy_in_outcome != CopyInOutcome::kNone ||
               rec.copy_in_duration != 0) {
      report.add("MCS-P012", Severity::kError, interval_label(k),
                 "copy-in time or outcome without a copy-in job");
    }
    if (rec.cpu_action == CpuAction::kIdle && rec.cpu_busy != 0) {
      report.add("MCS-P012", Severity::kError, interval_label(k),
                 "idle CPU with non-zero busy time");
    }

    // MCS-P004: R3 — every cancellation must answer to a higher-priority
    // latency-sensitive release, and only the proposed protocol cancels.
    if (cancellation_outcome(rec.copy_in_outcome)) {
      if (protocol != Protocol::kProposed) {
        report.add("MCS-P004", Severity::kError, interval_label(k),
                   "copy-in cancellation under a protocol without R3");
      } else if (rec.copy_in_job) {
        // A cancelled transfer stops at the trigger, so the release lies
        // within the DMA work performed; a discarded transfer completed
        // first, so the trigger lies anywhere strictly inside the
        // interval (R3/R4; DESIGN.md §5.8).
        const Time upto =
            rec.copy_in_outcome == CopyInOutcome::kCancelled
                ? rec.start + rec.copy_out_duration + rec.copy_in_duration
                : rec.end - 1;
        if (!justifying_ls_release(tasks, trace,
                                   tasks[rec.copy_in_job->task].priority,
                                   rec.start, upto)) {
          report.add("MCS-P004", Severity::kError, interval_label(k),
                     "cancellation of " +
                         job_label(tasks, *rec.copy_in_job) +
                         " has no justifying higher-priority LS release "
                         "inside the interval");
        }
      }
    }

    // MCS-P005 / MCS-P006: R4/R5 — urgent executions.
    if (rec.cpu_action == CpuAction::kUrgentExecute) {
      if (protocol != Protocol::kProposed) {
        report.add("MCS-P005", Severity::kError, interval_label(k),
                   "urgent execution under a protocol without R4");
      }
      if (!rec.cpu_job) {
        report.add("MCS-P012", Severity::kError, interval_label(k),
                   "urgent execution without a CPU job");
      } else {
        const rt::Task& task = tasks[rec.cpu_job->task];
        if (!task.latency_sensitive) {
          report.add("MCS-P005", Severity::kError, interval_label(k),
                     "urgent promotion of non-LS " +
                         job_label(tasks, *rec.cpu_job));
        }
        // R5 urgent path: the CPU performs the copy-in sequentially
        // before the execution, so its busy time covers both phases.
        if (rec.cpu_busy != task.copy_in + task.exec) {
          report.add("MCS-P006", Severity::kError, interval_label(k),
                     "urgent CPU time != copy-in + execution of " +
                         job_label(tasks, *rec.cpu_job));
        }
      }
    } else if (rec.cpu_action == CpuAction::kExecute && rec.cpu_job &&
               rec.cpu_busy != tasks[rec.cpu_job->task].exec) {
      report.add("MCS-P012", Severity::kError, interval_label(k),
                 "execution CPU time differs from " +
                     job_label(tasks, *rec.cpu_job) +
                     "'s execution parameter");
    }
  }

  // --- Per-job rules ---------------------------------------------------------
  for (const JobRecord& job : trace.jobs) {
    const std::string label = job_label(tasks, job.id);

    // MCS-P012: lifecycle ordering holds for every job, finished or not.
    if (job.ready_time < job.release) {
      report.add("MCS-P012", Severity::kError, label,
                 "ready before released");
    }
    if (job.exec_start != rt::kTimeMax && job.exec_start < job.ready_time) {
      report.add("MCS-P012", Severity::kError, label,
                 "execution started before the job was ready");
    }
    if (job.completed()) {
      if (job.exec_start == rt::kTimeMax) {
        report.add("MCS-P012", Severity::kError, label,
                   "completed without an execution start");
        continue;
      }
      if (job.completion <= job.exec_start) {
        report.add("MCS-P012", Severity::kError, label,
                   "completed before executing");
      }
      if (job.copy_in_start != rt::kTimeMax &&
          job.copy_in_start > job.exec_start) {
        report.add("MCS-P012", Severity::kError, label,
                   "copy-in recorded after the execution start");
      }
    } else if (!trace.aborted) {
      report.add("MCS-P012", Severity::kError, label,
                 "never completed in a trace that was not aborted");
    }
    if (job.became_urgent && !tasks[job.id.task].latency_sensitive) {
      report.add("MCS-P005", Severity::kError, label,
                 "non-LS job carries an urgent-promotion record (R4)");
    }

    if (!interval_protocol || !job.completed()) {
      continue;
    }

    // Locate the execution interval and count duplicates (MCS-P011), plus
    // the cancellation records that must explain the job's counter.
    std::size_t exec_k = npos;
    std::size_t execs = 0;
    std::size_t copyouts = 0;
    std::size_t cancellations = 0;
    for (std::size_t k = 0; k < trace.intervals.size(); ++k) {
      const IntervalRecord& rec = trace.intervals[k];
      if (rec.cpu_job == job.id && rec.cpu_action != CpuAction::kIdle) {
        ++execs;
        exec_k = k;
      }
      if (rec.copy_out_job == job.id) {
        ++copyouts;
      }
      if (rec.copy_in_job == job.id &&
          cancellation_outcome(rec.copy_in_outcome)) {
        ++cancellations;
      }
    }
    if (execs != 1) {
      report.add("MCS-P011", Severity::kError, label,
                 "executed " + std::to_string(execs) + " times");
    }
    if (copyouts != 1) {
      report.add("MCS-P011", Severity::kError, label,
                 "copied out " + std::to_string(copyouts) + " times");
    }
    if (cancellations != job.copy_in_cancellations) {
      report.add("MCS-P012", Severity::kError, label,
                 "cancellation counter " +
                     std::to_string(job.copy_in_cancellations) +
                     " != " + std::to_string(cancellations) +
                     " cancelled copy-in records");
    }
    if (exec_k == npos) {
      continue;  // already reported as zero executions
    }
    const IntervalRecord& exec_rec = trace.intervals[exec_k];

    // MCS-P006: an urgent execution must be recorded as a promotion.
    if (exec_rec.cpu_action == CpuAction::kUrgentExecute &&
        !job.became_urgent) {
      report.add("MCS-P006", Severity::kError, label,
                 "urgent execution without a promotion record (R4/R5)");
    }

    // MCS-P007: Property 1 — a DMA-loaded execution was copied in by the
    // DMA engine in the adjacent previous interval.
    if (exec_rec.cpu_action == CpuAction::kExecute) {
      const IntervalRecord* prev =
          exec_k > 0 ? &trace.intervals[exec_k - 1] : nullptr;
      if (prev == nullptr || prev->copy_in_job != job.id ||
          prev->copy_in_outcome != CopyInOutcome::kCompleted) {
        report.add("MCS-P007", Severity::kError, label,
                   "executes in " + interval_label(exec_k) +
                       " without a completed copy-in in the previous "
                       "interval");
      } else if (prev->end != exec_rec.start) {
        report.add("MCS-P007", Severity::kError, label,
                   "copy-in interval is not adjacent to the execution "
                   "interval");
      }
    }

    // MCS-P008: Properties 1-2 — copy-out in the adjacent next interval,
    // and the completion time is the end of that transfer.
    if (exec_k + 1 >= trace.intervals.size()) {
      report.add("MCS-P008", Severity::kError, label,
                 "no interval after the execution for the copy-out");
    } else {
      const IntervalRecord& next = trace.intervals[exec_k + 1];
      if (next.copy_out_job != job.id) {
        report.add("MCS-P008", Severity::kError, label,
                   "copy-out is not in the interval following the "
                   "execution");
      } else {
        if (next.start != exec_rec.end) {
          report.add("MCS-P008", Severity::kError, label,
                     "copy-out interval is not adjacent to the execution "
                     "interval");
        }
        if (job.completion != next.start + next.copy_out_duration) {
          report.add("MCS-P008", Severity::kError, label,
                     "completion time inconsistent with the copy-out "
                     "record");
        }
      }
    }

    // MCS-P009 / MCS-P010: Properties 3-4 — blocking interval bounds.
    // Defined only for jobs that were ready at release (no precedence
    // deferral).  A blocking interval is one whose CPU runs a strictly
    // lower-priority job overlapping the job's waiting window.
    if (job.ready_time == job.release) {
      const auto my_priority = tasks[job.id.task].priority;
      std::size_t blocked = 0;
      for (const IntervalRecord& rec : trace.intervals) {
        if (!rec.cpu_job ||
            tasks[rec.cpu_job->task].priority <= my_priority) {
          continue;
        }
        const Time cpu_end = rec.start + rec.cpu_busy;
        if (cpu_end > job.ready_time && rec.start < job.exec_start) {
          ++blocked;
        }
      }
      const bool ls_bound = tasks[job.id.task].latency_sensitive &&
                            protocol == Protocol::kProposed;
      const std::size_t limit = ls_bound ? 1 : 2;
      if (blocked > limit) {
        report.add(ls_bound ? "MCS-P009" : "MCS-P010", Severity::kError,
                   label,
                   "blocked in " + std::to_string(blocked) +
                       " intervals (Property " +
                       (ls_bound ? std::string("4 limit 1")
                                 : std::string("3 limit 2")) +
                       ")");
      }
    }
  }

  return report;
}

}  // namespace mcs::check
