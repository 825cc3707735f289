#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "check/trace_audit.hpp"
#include "support/contracts.hpp"
#include "sim/job_source.hpp"

namespace {

using mcs::rt::Task;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::check::audit_trace;
using mcs::sim::CopyInOutcome;
using mcs::sim::CpuAction;
using mcs::sim::JobId;
using mcs::sim::Protocol;
using mcs::sim::Release;
using mcs::sim::simulate;
using mcs::sim::Trace;

Task make_task(std::string name, Time exec, Time copy_in, Time copy_out,
               Time period, Time deadline, mcs::rt::Priority priority,
               bool ls = false) {
  Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = copy_in;
  t.copy_out = copy_out;
  t.period = period;
  t.deadline = deadline;
  t.priority = priority;
  t.latency_sensitive = ls;
  return t;
}

// ---------------------------------------------------------------------------
// Single-job scenarios: exact hand-computed timelines.
// ---------------------------------------------------------------------------

TEST(SimSingleJob, ThreePhasePipelineUnderProposed) {
  const TaskSet tasks({make_task("a", 5, 2, 1, 100, 100, 0)});
  const Trace trace =
      simulate(tasks, Protocol::kProposed, {{JobId{0, 0}, 0}});
  // I_0 copy-in [0,2), I_1 exec [2,7), I_2 copy-out [7,8).
  ASSERT_EQ(trace.intervals.size(), 3u);
  EXPECT_EQ(trace.intervals[0].copy_in_outcome, CopyInOutcome::kCompleted);
  EXPECT_EQ(trace.intervals[0].end, 2);
  EXPECT_EQ(trace.intervals[1].cpu_action, CpuAction::kExecute);
  EXPECT_EQ(trace.intervals[1].end, 7);
  EXPECT_EQ(trace.intervals[2].copy_out_duration, 1);
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].exec_start, 2);
  EXPECT_EQ(trace.jobs[0].completion, 8);
  EXPECT_EQ(trace.jobs[0].response_time(), 8);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimSingleJob, ResponseEqualsTotalDemandForIsolatedJob) {
  const TaskSet tasks({make_task("a", 7, 3, 2, 100, 100, 0)});
  for (const Protocol p : {Protocol::kProposed, Protocol::kWasilyPellizzoni,
                           Protocol::kNonPreemptive}) {
    const Trace trace = simulate(tasks, p, {{JobId{0, 0}, 5}});
    ASSERT_EQ(trace.jobs.size(), 1u);
    EXPECT_EQ(trace.jobs[0].response_time(), 12) << to_string(p);
  }
}

TEST(SimSingleJob, ZeroMemoryPhases) {
  const TaskSet tasks({make_task("a", 4, 0, 0, 50, 50, 0)});
  const Trace trace =
      simulate(tasks, Protocol::kProposed, {{JobId{0, 0}, 0}});
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].response_time(), 4);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimSingleJob, LateReleaseStartsIdleInterval) {
  const TaskSet tasks({make_task("a", 2, 1, 1, 100, 100, 0)});
  const Trace trace =
      simulate(tasks, Protocol::kProposed, {{JobId{0, 0}, 42}});
  ASSERT_FALSE(trace.intervals.empty());
  EXPECT_EQ(trace.intervals[0].start, 42);
  EXPECT_EQ(trace.jobs[0].completion, 42 + 4);
}

// ---------------------------------------------------------------------------
// Two-job pipelining: DMA copy-in of the next task overlaps execution.
// ---------------------------------------------------------------------------

TEST(SimPipeline, CopyInOverlapsExecution) {
  const TaskSet tasks({make_task("A", 5, 2, 1, 100, 100, 0),
                       make_task("B", 4, 3, 2, 100, 100, 1)});
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{0, 0}, 0}, {JobId{1, 0}, 0}});
  // I_0 [0,2): copy-in A.  I_1 [2,7): exec A || copy-in B.
  // I_2 [7,11): exec B || copy-out A.  I_3 [11,13): copy-out B.
  ASSERT_EQ(trace.intervals.size(), 4u);
  EXPECT_EQ(trace.intervals[1].end, 7);
  EXPECT_EQ(trace.intervals[1].cpu_action, CpuAction::kExecute);
  EXPECT_EQ(trace.intervals[1].copy_in_outcome, CopyInOutcome::kCompleted);
  EXPECT_EQ(trace.intervals[2].copy_out_duration, 1);
  EXPECT_EQ(trace.jobs[0].completion, 8);   // copy-out A inside I_2
  EXPECT_EQ(trace.jobs[1].completion, 13);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimPipeline, WpAndProposedIdenticalWithoutLsTasks) {
  const TaskSet tasks({make_task("A", 5, 2, 1, 40, 40, 0),
                       make_task("B", 4, 3, 2, 60, 60, 1),
                       make_task("C", 3, 1, 1, 80, 80, 2)});
  const auto releases =
      mcs::sim::synchronous_periodic_releases(tasks, 200);
  const Trace wp = simulate(tasks, Protocol::kWasilyPellizzoni, releases);
  const Trace prop = simulate(tasks, Protocol::kProposed, releases);
  ASSERT_EQ(wp.jobs.size(), prop.jobs.size());
  for (std::size_t j = 0; j < wp.jobs.size(); ++j) {
    EXPECT_EQ(wp.jobs[j].completion, prop.jobs[j].completion);
  }
  EXPECT_EQ(wp.intervals.size(), prop.intervals.size());
}

// ---------------------------------------------------------------------------
// The Figure 1 phenomenon: double blocking under [3], rescued by R3-R5.
// ---------------------------------------------------------------------------

class Figure1Scenario : public ::testing::Test {
 protected:
  // hi is released just after lp2's copy-in completed; under [3] it then
  // waits for lp1's and lp2's executions (two blocking intervals) and
  // misses; NPS (single blocking) and the proposed protocol (cancellation
  // via R3 + urgent promotion via R4/R5) both meet the deadline.
  TaskSet make_tasks(bool hi_is_ls) {
    return TaskSet({make_task("hi", 3, 1, 1, 100, 10, 0, hi_is_ls),
                    make_task("lp1", 4, 1, 1, 100, 100, 1),
                    make_task("lp2", 4, 1, 1, 100, 100, 2)});
  }
  const std::vector<Release> releases_{
      {JobId{1, 0}, 0}, {JobId{2, 0}, 0}, {JobId{0, 0}, 2}};
};

TEST_F(Figure1Scenario, WpDoubleBlockingMissesDeadline) {
  const TaskSet tasks = make_tasks(false);
  const Trace trace =
      simulate(tasks, Protocol::kWasilyPellizzoni, releases_);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kWasilyPellizzoni, trace).clean());
  // hi completes at 13 > absolute deadline 12.
  EXPECT_EQ(trace.jobs[2].completion, 13);
  EXPECT_TRUE(trace.jobs[2].missed_deadline());
}

TEST_F(Figure1Scenario, NpsSingleBlockingMeetsDeadline) {
  const TaskSet tasks = make_tasks(false);
  const Trace trace = simulate(tasks, Protocol::kNonPreemptive, releases_);
  // lp1 runs [0,6); hi runs [6,11): completion 11 <= 12.
  EXPECT_EQ(trace.jobs[2].completion, 11);
  EXPECT_FALSE(trace.jobs[2].missed_deadline());
}

TEST_F(Figure1Scenario, ProposedUrgentPromotionMeetsDeadline) {
  const TaskSet tasks = make_tasks(true);
  const Trace trace = simulate(tasks, Protocol::kProposed, releases_);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
  // lp2's load is invalidated; hi executes urgently in I_2 and completes
  // at 10 <= 12.
  EXPECT_EQ(trace.jobs[2].completion, 10);
  EXPECT_TRUE(trace.jobs[2].became_urgent);
  EXPECT_FALSE(trace.jobs[2].missed_deadline());
}

// ---------------------------------------------------------------------------
// R3 cancellation mid-transfer.
// ---------------------------------------------------------------------------

TEST(SimCancellation, LsReleaseDuringLowerPriorityCopyInCancels) {
  const TaskSet tasks({make_task("ls", 3, 2, 1, 100, 50, 0, true),
                       make_task("lo", 5, 6, 1, 100, 100, 1)});
  // lo's copy-in spans [0,6); ls arrives at 3 -> cancel at 3.
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{1, 0}, 0}, {JobId{0, 0}, 3}});
  ASSERT_FALSE(trace.intervals.empty());
  EXPECT_EQ(trace.intervals[0].copy_in_outcome, CopyInOutcome::kCancelled);
  EXPECT_EQ(trace.intervals[0].copy_in_duration, 3);
  EXPECT_EQ(trace.intervals[0].end, 3);
  EXPECT_TRUE(trace.jobs[1].became_urgent);
  // ls executes urgently in I_1: copy-in [3,5), exec [5,8).  In parallel
  // the DMA re-loads lo ([3,9)), which stretches I_1 to 9 (R6), so ls's
  // copy-out runs in I_2 = [9,10).
  EXPECT_EQ(trace.jobs[1].exec_start, 5);
  EXPECT_EQ(trace.jobs[1].completion, 10);
  // lo is re-loaded afterwards and still completes.
  EXPECT_TRUE(trace.jobs[0].completed());
  EXPECT_EQ(trace.jobs[0].copy_in_cancellations, 1u);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimCancellation, HigherPriorityCopyInIsNotCancelled) {
  const TaskSet tasks({make_task("hi", 3, 6, 1, 100, 100, 0),
                       make_task("ls", 3, 2, 1, 100, 50, 1, true)});
  // hi's copy-in in progress; ls (lower priority) released -> no R3.
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{0, 0}, 0}, {JobId{1, 0}, 3}});
  EXPECT_EQ(trace.intervals[0].copy_in_outcome, CopyInOutcome::kCompleted);
  EXPECT_FALSE(trace.jobs[1].became_urgent);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimCancellation, NlsReleaseNeverCancels) {
  const TaskSet tasks({make_task("hi", 3, 2, 1, 100, 50, 0, false),
                       make_task("lo", 5, 6, 1, 100, 100, 1)});
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{1, 0}, 0}, {JobId{0, 0}, 3}});
  EXPECT_EQ(trace.intervals[0].copy_in_outcome, CopyInOutcome::kCompleted);
  EXPECT_FALSE(trace.jobs[1].became_urgent);
}

// ---------------------------------------------------------------------------
// R4 urgent promotion when no copy-in ran in the interval.
// ---------------------------------------------------------------------------

TEST(SimUrgent, PromotionWithoutCancellation) {
  const TaskSet tasks({make_task("S", 3, 2, 1, 100, 50, 0, true),
                       make_task("A", 10, 1, 1, 100, 100, 1)});
  // A loads in I_0 [0,1) and executes in I_1 [1,11); S arrives at 5 while
  // the DMA is idle (nothing ready at I_1's start) -> urgent at end of I_1.
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{1, 0}, 0}, {JobId{0, 0}, 5}});
  ASSERT_GE(trace.intervals.size(), 3u);
  EXPECT_EQ(trace.intervals[1].copy_in_outcome, CopyInOutcome::kNone);
  EXPECT_EQ(trace.intervals[2].cpu_action, CpuAction::kUrgentExecute);
  EXPECT_EQ(trace.jobs[1].exec_start, 11 + 2);
  EXPECT_EQ(trace.jobs[1].completion, 11 + 2 + 3 + 1);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

TEST(SimUrgent, HighestPriorityLsReleasedWins) {
  const TaskSet tasks({make_task("S1", 2, 1, 1, 100, 50, 0, true),
                       make_task("S2", 2, 1, 1, 100, 50, 1, true),
                       make_task("A", 10, 1, 1, 100, 100, 2)});
  // Both LS tasks arrive during A's execution interval (no copy-in there);
  // only the higher-priority one becomes urgent.
  const Trace trace =
      simulate(tasks, Protocol::kProposed,
               {{JobId{2, 0}, 0}, {JobId{1, 0}, 5}, {JobId{0, 0}, 6}});
  ASSERT_GE(trace.intervals.size(), 3u);
  EXPECT_TRUE(trace.jobs.at(2).became_urgent);   // S1 released at 6
  EXPECT_FALSE(trace.jobs.at(1).became_urgent);  // S2 served via DMA later
  EXPECT_TRUE(audit_trace(tasks, Protocol::kProposed, trace).clean());
}

// ---------------------------------------------------------------------------
// NPS semantics.
// ---------------------------------------------------------------------------

TEST(SimNps, NonPreemptiveBlockingThenPriorityOrder) {
  const TaskSet tasks({make_task("hi", 2, 1, 1, 100, 100, 0),
                       make_task("mid", 3, 1, 1, 100, 100, 1),
                       make_task("lo", 8, 1, 1, 100, 100, 2)});
  // lo starts first (released alone), hi+mid arrive during lo.
  const Trace trace =
      simulate(tasks, Protocol::kNonPreemptive,
               {{JobId{2, 0}, 0}, {JobId{1, 0}, 1}, {JobId{0, 0}, 2}});
  // lo: [0,10); hi: [10,14); mid: [14,19).
  EXPECT_EQ(trace.jobs[0].completion, 10);
  EXPECT_EQ(trace.jobs[2].completion, 14);
  EXPECT_EQ(trace.jobs[1].completion, 19);
  EXPECT_TRUE(audit_trace(tasks, Protocol::kNonPreemptive, trace).clean());
}

// ---------------------------------------------------------------------------
// Precedence: a job is deferred until the previous job of its task ends.
// ---------------------------------------------------------------------------

TEST(SimPrecedence, BackToBackJobsDoNotOverlap) {
  const TaskSet tasks({make_task("a", 10, 2, 2, 5, 50, 0)});
  // Period 5 < response time: the second job must wait for the first.
  const Trace trace = simulate(tasks, Protocol::kProposed,
                               {{JobId{0, 0}, 0}, {JobId{0, 1}, 5}});
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_TRUE(trace.jobs[0].completed());
  EXPECT_TRUE(trace.jobs[1].completed());
  EXPECT_GE(trace.jobs[1].ready_time, trace.jobs[0].completion);
  EXPECT_GT(trace.jobs[1].completion, trace.jobs[0].completion);
}

TEST(SimGuards, RejectsForeignReleases) {
  const TaskSet tasks({make_task("a", 1, 1, 1, 10, 10, 0)});
  EXPECT_THROW(
      simulate(tasks, Protocol::kProposed, {{JobId{3, 0}, 0}}),
      mcs::support::ContractViolation);
  EXPECT_THROW(
      simulate(tasks, Protocol::kProposed, {{JobId{0, 0}, -1}}),
      mcs::support::ContractViolation);
}

TEST(SimGuards, AbortsOnIntervalBudget) {
  const TaskSet tasks({make_task("a", 10, 1, 1, 2, 2, 0)});
  // Heavily overloaded task; tiny interval budget forces an abort.
  mcs::sim::SimOptions options;
  options.max_intervals = 3;
  const auto releases = mcs::sim::synchronous_periodic_releases(tasks, 100);
  const Trace trace =
      simulate(tasks, Protocol::kProposed, releases, options);
  EXPECT_TRUE(trace.aborted);
  EXPECT_FALSE(trace.all_deadlines_met());
}

}  // namespace
