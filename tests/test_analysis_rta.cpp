// Unit tests of the MILP-based response-time analysis on hand-analyzable
// task sets (paper §V / §VI).
#include <gtest/gtest.h>

#include <limits>

#include "analysis/greedy.hpp"
#include "analysis/nps.hpp"
#include "analysis/response_time.hpp"
#include "analysis/schedulability.hpp"
#include "rt/task.hpp"
#include "support/contracts.hpp"

namespace {

using mcs::analysis::AnalysisOptions;
using mcs::analysis::analyze;
using mcs::analysis::analyze_proposed;
using mcs::analysis::analyze_wp;
using mcs::analysis::Approach;
using mcs::analysis::bound_response_time;
using mcs::analysis::nps_bound;
using mcs::rt::Task;
using mcs::rt::TaskSet;
using mcs::rt::Time;

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
// Single-task bounds are exactly computable by hand.
// ---------------------------------------------------------------------------

TEST(RtaSingleTask, NlsBoundMatchesHandDerivation) {
  // C=10, l=2, u=3.  Window: Delta_0 <= copyout0 (<=3), Delta_1 = l = 2,
  // Delta_2 <= max(C, copyin_last <= 2) = 10; R = 15 + u = 18.
  const TaskSet tasks({make_task("solo", 10, 2, 3, 100, 100, 0)});
  const auto r = bound_response_time(tasks, 0);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.wcrt, 18);
  EXPECT_FALSE(r.used_relaxation_bound);
}

TEST(RtaSingleTask, LsBoundMatchesHandDerivation) {
  // LS case (a): Delta_0 <= copyout0 + l = 5, Delta_1 <= max(C, l) = 10;
  // case (b): Delta_0 <= copyout0 = 3, Delta_1 = l + C = 12.
  // Both give delay 15 -> R = 18.
  const TaskSet tasks({make_task("solo", 10, 2, 3, 100, 100, 0, true)});
  const auto r = bound_response_time(tasks, 0);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.wcrt, 18);
}

TEST(RtaSingleTask, NoMemoryPhasesGivesPureWcet) {
  const TaskSet tasks({make_task("solo", 10, 0, 0, 100, 100, 0)});
  const auto r = bound_response_time(tasks, 0);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.wcrt, 10);
}

TEST(RtaSingleTask, ImmediateDeadlineFailure) {
  const TaskSet tasks({make_task("solo", 10, 2, 3, 100, 12, 0)});
  const auto r = bound_response_time(tasks, 0);
  EXPECT_FALSE(r.schedulable);
  EXPECT_TRUE(r.exceeded_deadline);
  EXPECT_EQ(r.wcrt, 15);  // l + C + u already misses
}

// ---------------------------------------------------------------------------
// Blocking structure: NLS tasks can be blocked by two lp tasks, LS by one.
// ---------------------------------------------------------------------------

class BlockingStructure : public ::testing::Test {
 protected:
  // One high-priority task under analysis plus two heavy lp tasks with
  // long periods (no interference, pure blocking).
  TaskSet make(bool hi_ls) {
    return TaskSet({make_task("hi", 2, 1, 1, 1000, 1000, 0, hi_ls),
                    make_task("lo1", 20, 2, 2, 1000, 1000, 1),
                    make_task("lo2", 30, 3, 3, 1000, 1000, 2)});
  }
};

TEST_F(BlockingStructure, NlsSeesTwoBlockingExecutions) {
  const TaskSet tasks = make(false);
  const auto r = bound_response_time(tasks, 0);
  ASSERT_TRUE(r.schedulable);
  // Two lp executions (30 and 20) must both fit in the bound: the delay
  // clearly exceeds their sum.
  EXPECT_GE(r.wcrt, 30 + 20 + 2);
  // And it cannot exceed the coarse everything-everywhere bound.
  EXPECT_LE(r.wcrt, 30 + 20 + 3 + 3 + 2 + 1 + 1 + 3 + 2 + 1);
}

TEST_F(BlockingStructure, LsSeesOnlyOneBlockingExecution) {
  const TaskSet tasks = make(true);
  const auto r = bound_response_time(tasks, 0);
  ASSERT_TRUE(r.schedulable);
  const auto nls = bound_response_time(make(false), 0);
  // The LS bound must beat the NLS bound by at least the smaller lp WCET
  // (one whole blocking execution disappears).
  EXPECT_LE(r.wcrt + 20, nls.wcrt + 3);
  // The single blocking execution (up to 30) still shows.
  EXPECT_GE(r.wcrt, 30);
}

TEST_F(BlockingStructure, WpAnalysisEqualsAllNlsProposedAnalysis) {
  // With no LS task the two analyses are the same MILP (DESIGN.md §5.3).
  const TaskSet tasks = make(false);
  const auto direct = bound_response_time(tasks, 0);
  AnalysisOptions wp;
  wp.ignore_ls = true;
  const auto as_wp = bound_response_time(tasks, 0, wp);
  EXPECT_EQ(direct.wcrt, as_wp.wcrt);
}

// ---------------------------------------------------------------------------
// The Figure 1 task set, through the analysis (not just the simulator).
// ---------------------------------------------------------------------------

class Fig1Analysis : public ::testing::Test {
 protected:
  TaskSet tasks_{std::vector<Task>{
      make_task("hi", 3, 1, 1, 100, 10, 0),
      make_task("lp1", 4, 1, 1, 100, 100, 1),
      make_task("lp2", 4, 1, 1, 100, 100, 2)}};
};

TEST_F(Fig1Analysis, WpDeemsUnschedulable) {
  const auto wp = analyze_wp(tasks_);
  EXPECT_FALSE(wp.schedulable);
  // hi misses: two blocking intervals (4 + 4) + own exec interval (3) +
  // copy-out (1) give a bound of 12 > D = 10.
  EXPECT_FALSE(wp.per_task[0].schedulable);
  EXPECT_EQ(wp.per_task[0].wcrt, 12);
}

TEST_F(Fig1Analysis, NpsBeatsWpButStillMisses) {
  // NPS worst case: one blocking job (6) + own demand (5) = 11 > 10 —
  // tighter than WP's 12 (the Figure 1 phenomenon: [3] can be *worse*
  // than plain non-preemptive scheduling) yet still over the deadline.
  const auto hi = nps_bound(tasks_, 0);
  EXPECT_EQ(hi.wcrt, 11);
  EXPECT_FALSE(hi.schedulable);
  const auto wp = analyze_wp(tasks_);
  EXPECT_GT(wp.per_task[0].wcrt, hi.wcrt);
}

TEST_F(Fig1Analysis, ProposedRescuesViaGreedyLsMarking) {
  const auto prop = analyze_proposed(tasks_);
  EXPECT_TRUE(prop.schedulable);
  // The greedy algorithm must have marked hi as LS; with one blocking
  // interval its bound drops to 9 <= 10.
  EXPECT_TRUE(prop.ls_flags[0]);
  EXPECT_GE(prop.rounds, 2u);
  EXPECT_LE(prop.per_task[0].wcrt, 10);
}

// ---------------------------------------------------------------------------
// Greedy containment: whenever WP succeeds, the proposed analysis succeeds
// (round zero of the greedy algorithm *is* the WP analysis).
// ---------------------------------------------------------------------------

TEST(Greedy, WpScheduleImpliesProposedSchedule) {
  const TaskSet tasks({make_task("a", 2, 1, 1, 40, 40, 0),
                       make_task("b", 3, 1, 1, 60, 60, 1),
                       make_task("c", 4, 1, 1, 90, 90, 2)});
  const auto wp = analyze_wp(tasks);
  ASSERT_TRUE(wp.schedulable);
  const auto prop = analyze_proposed(tasks);
  EXPECT_TRUE(prop.schedulable);
  EXPECT_EQ(prop.rounds, 1u);
  for (const bool flag : prop.ls_flags) {
    EXPECT_FALSE(flag);  // no promotion needed
  }
}

TEST(Greedy, UnschedulableEvenWithLs) {
  // Deadline below l + C + u: hopeless under any protocol.
  const TaskSet tasks({make_task("a", 10, 2, 2, 20, 5, 0)});
  const auto prop = analyze_proposed(tasks);
  EXPECT_FALSE(prop.schedulable);
}

// ---------------------------------------------------------------------------
// NPS analysis against hand-computed numbers.
// ---------------------------------------------------------------------------

TEST(Nps, TwoTaskExample) {
  // hp: e = 4 (2+1+1), T = 10; lp: e = 12 (10+1+1), T = 100, D = 50.
  const TaskSet tasks({make_task("hp", 2, 1, 1, 10, 10, 0),
                       make_task("lp", 10, 1, 1, 100, 50, 1)});
  // hp: blocking 12, start: w = 12 + (jobs of hp before start... none
  // higher) -> w = 12, R = 12 + 4 = 16 > D = 10: unschedulable!
  const auto hp = nps_bound(tasks, 0);
  EXPECT_EQ(hp.wcrt, 16);
  EXPECT_FALSE(hp.schedulable);
  // lp: no blocking; start: s = 0 + hp interference; s = 4 -> releases in
  // [0,4] = 1 -> s = 4; R = 4 + 12 = 16 <= 50.
  const auto lo = nps_bound(tasks, 1);
  EXPECT_EQ(lo.wcrt, 16);
  EXPECT_TRUE(lo.schedulable);
}

TEST(Nps, MultipleJobsInBusyPeriod) {
  // Task i: e = 5, T = 6, D = 6; hp: e = 2, T = 7.
  // Busy period spans several jobs of i; the later jobs matter.
  const TaskSet tasks({make_task("hp", 1, 1, 0, 7, 7, 0),
                       make_task("i", 3, 1, 1, 6, 6, 1)});
  const auto r = nps_bound(tasks, 1);
  EXPECT_TRUE(r.wcrt > 0);
  // The single-job bound would be 2 + 5 = 7 > D... check analysis flags.
  EXPECT_EQ(r.schedulable, r.wcrt <= 6);
}

TEST(Nps, IsolatedTask) {
  const TaskSet tasks({make_task("solo", 10, 2, 3, 100, 100, 0)});
  const auto r = nps_bound(tasks, 0);
  EXPECT_EQ(r.wcrt, 15);
  EXPECT_TRUE(r.schedulable);
}

TEST(Nps, OverloadDiverges) {
  const TaskSet tasks({make_task("a", 9, 1, 1, 10, 10, 0),
                       make_task("b", 9, 1, 1, 10, 10, 1)});
  const auto r = nps_bound(tasks, 1);
  EXPECT_FALSE(r.schedulable);
}

// ---------------------------------------------------------------------------
// LP relaxation mode: faster, never less pessimistic than the exact MILP.
// ---------------------------------------------------------------------------

TEST(Relaxation, LpBoundDominatesExactBound) {
  const TaskSet tasks({make_task("hi", 3, 1, 1, 50, 30, 0),
                       make_task("mid", 5, 2, 2, 80, 80, 1),
                       make_task("lo", 8, 2, 2, 120, 120, 2)});
  AnalysisOptions relaxed;
  relaxed.lp_relaxation_only = true;
  for (mcs::rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    const auto exact = bound_response_time(tasks, i);
    const auto lp = bound_response_time(tasks, i, relaxed);
    if (exact.schedulable && lp.schedulable) {
      EXPECT_GE(lp.wcrt, exact.wcrt) << "task " << i;
    }
    // Relaxation can only lose schedulability, never gain it.
    if (lp.schedulable) {
      EXPECT_TRUE(exact.schedulable);
    }
  }
}

// ---------------------------------------------------------------------------
// Regression: delay_to_ticks must round *up* (DESIGN.md §5.1).  The old
// implementation computed ceil(delay - 1e-6), which mapped a genuine bound
// like 5.0000005 to 5 ticks — below the bound, i.e. unsafe.

TEST(DelayToTicks, NeverRoundsBelowTheDoubleBound) {
  using mcs::analysis::delay_to_ticks;
  // Bounds straddling integer boundaries from both sides, including the
  // exact epsilon range the old code shaved off.
  const double bounds[] = {0.0,       1e-9,      1e-7,      0.3,
                           0.9999999, 1.0,       1.0000001, 4.9999999,
                           5.0,       5.0000005, 5.0000001, 5.9,
                           1e6,       1e6 + 1e-7};
  for (const double delay : bounds) {
    const Time ticks = delay_to_ticks(delay);
    EXPECT_GE(static_cast<double>(ticks), delay) << "delay=" << delay;
    // ...while staying within one tick of the bound (no gratuitous
    // pessimism beyond the ceil).
    EXPECT_LT(static_cast<double>(ticks), delay + 1.0) << "delay=" << delay;
  }
}

TEST(DelayToTicks, ExactIntegersPassThroughUnchanged) {
  using mcs::analysis::delay_to_ticks;
  for (const Time v : {Time{0}, Time{1}, Time{5}, Time{123456789}}) {
    EXPECT_EQ(delay_to_ticks(static_cast<double>(v)), v);
  }
}

TEST(DelayToTicks, EpsilonAboveIntegerRoundsUpNotDown) {
  using mcs::analysis::delay_to_ticks;
  // The headline case from the bug report: 5.0000005 is a genuine bound
  // above 5, so 5 ticks would under-approximate it.
  EXPECT_EQ(delay_to_ticks(5.0000005), 6);
  EXPECT_EQ(delay_to_ticks(5.000001), 6);
  // Strictly below the integer still rounds to it.
  EXPECT_EQ(delay_to_ticks(4.9999999), 5);
}

TEST(DelayToTicks, RejectsNonFiniteAndNegativeBounds) {
  using mcs::analysis::delay_to_ticks;
  EXPECT_THROW(delay_to_ticks(-1.0), mcs::support::ContractViolation);
  EXPECT_THROW(delay_to_ticks(std::numeric_limits<double>::infinity()),
               mcs::support::ContractViolation);
  EXPECT_THROW(delay_to_ticks(std::numeric_limits<double>::quiet_NaN()),
               mcs::support::ContractViolation);
}

}  // namespace
