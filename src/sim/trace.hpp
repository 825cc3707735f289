// Simulation trace records.
//
// The simulator (engine.hpp) produces a Trace: per-interval records of what
// the CPU and the DMA engine did, plus per-job lifecycle data.  Traces feed
// the protocol audit (check/trace_audit.hpp — Properties 1-4 of the paper),
// the ASCII Gantt renderer (gantt.hpp), and the soundness tests that compare
// simulated response times against analysis bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rt/types.hpp"

namespace mcs::sim {

/// Identifies one job: `task` index within the TaskSet plus a per-task
/// sequence number.
struct JobId {
  rt::TaskIndex task = 0;
  std::uint64_t seq = 0;
  friend bool operator==(const JobId&, const JobId&) = default;
};

/// How the CPU spent a scheduling interval.
enum class CpuAction : unsigned char {
  kIdle,
  kExecute,        ///< execution phase of a DMA-loaded job (R5, normal path)
  kUrgentExecute,  ///< copy-in + execution performed by the CPU (R5, urgent)
};

/// How the DMA copy-in slot of an interval ended.
enum class CopyInOutcome : unsigned char {
  kNone,       ///< no copy-in scheduled this interval
  kCompleted,  ///< data loaded; the job executes next interval
  kCancelled,  ///< cancelled mid-transfer by an LS release (R3)
  kDiscarded,  ///< completed within the interval but invalidated by an LS
               ///< release in the same interval (R3/R4; DESIGN.md §5.8)
};

/// One scheduling interval I_k on a core (Definition 1), or one
/// non-preemptive execution block under NPS.
struct IntervalRecord {
  std::size_t index = 0;
  rt::Time start = 0;
  rt::Time end = 0;

  CpuAction cpu_action = CpuAction::kIdle;
  std::optional<JobId> cpu_job;       ///< job executing on the CPU
  rt::Time cpu_busy = 0;              ///< CPU busy time within the interval

  std::optional<JobId> copy_out_job;  ///< DMA copy-out at interval start (R2)
  rt::Time copy_out_duration = 0;
  std::optional<JobId> copy_in_job;   ///< DMA copy-in after the copy-out (R2)
  CopyInOutcome copy_in_outcome = CopyInOutcome::kNone;
  rt::Time copy_in_duration = 0;      ///< actual DMA time spent (partial if
                                      ///< cancelled)
  rt::Time dma_busy = 0;              ///< copy_out + copy_in time
};

/// Lifecycle of one job.
struct JobRecord {
  JobId id;
  rt::Time release = 0;
  /// max(release, completion of the previous job of the same task) —
  /// inter-job precedence (§II) can defer readiness past the release.
  /// kTimeMax until the job is admitted (an aborted run may never get
  /// that far).
  rt::Time ready_time = rt::kTimeMax;
  rt::Time absolute_deadline = 0;
  /// Time the (successful) copy-in phase began — DMA transfer start, or
  /// the CPU-side copy-in start for urgent jobs; kTimeMax if never loaded.
  /// Under NPS this is the start of the job's serial copy-in.
  rt::Time copy_in_start = rt::kTimeMax;
  /// Time the execution phase started (CPU), kTimeMax if never started.
  rt::Time exec_start = rt::kTimeMax;
  /// Completion = end of the copy-out phase, kTimeMax if incomplete.
  rt::Time completion = rt::kTimeMax;
  bool became_urgent = false;
  /// Number of times this job's copy-in was cancelled or discarded.
  std::uint32_t copy_in_cancellations = 0;

  bool completed() const noexcept { return completion != rt::kTimeMax; }
  rt::Time response_time() const noexcept {
    return completed() ? completion - release : rt::kTimeMax;
  }
  bool missed_deadline() const noexcept {
    return !completed() || completion > absolute_deadline;
  }
};

/// Full result of one simulation run.
struct Trace {
  std::vector<IntervalRecord> intervals;
  std::vector<JobRecord> jobs;
  bool aborted = false;  ///< interval budget exhausted before completion

  /// Worst observed response time of `task` (kTimeMax when a job of the
  /// task never completed).
  rt::Time worst_response(rt::TaskIndex task) const;
  /// True iff all jobs completed within their deadlines.
  bool all_deadlines_met() const;
  std::size_t deadline_misses() const;
};

}  // namespace mcs::sim
