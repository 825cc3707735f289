// Differential and determinism tests for the AnalysisEngine session layer:
// carried state (formulation patches, carried incumbents, memoized NPS
// bounds) must never change a result — only how fast it is computed.  The
// carried-state tests run with relative_gap = 0 so every MILP is solved to
// proven optimality: exact optima are independent of the search path,
// making the expected equalities bit-exact rather than tolerance-based.
#include "analysis/engine.hpp"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "rt/arrival.hpp"
#include "rt/task.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace {

using mcs::analysis::AnalysisEngine;
using mcs::analysis::AnalysisOptions;
using mcs::analysis::Approach;
using mcs::analysis::EngineConfig;
using mcs::analysis::ProposedResult;
using mcs::analysis::TaskBoundResult;
using mcs::analysis::WpResult;
using mcs::rt::Task;
using mcs::rt::TaskSet;

namespace telemetry = mcs::support::telemetry;

std::uint64_t counter(const std::string& name) {
  const telemetry::Snapshot snap = telemetry::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

AnalysisOptions exact_options() {
  AnalysisOptions options;
  options.milp.relative_gap = 0.0;  // proven optima: search-path independent
  return options;
}

Task make_task(std::string name, mcs::rt::Time exec, mcs::rt::Time mem,
               mcs::rt::Time period, mcs::rt::Time deadline,
               mcs::rt::Priority priority) {
  Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = mem;
  t.copy_out = mem;
  t.period = period;
  t.deadline = deadline;
  t.priority = priority;
  return t;
}

void expect_same_bound(const TaskBoundResult& got, const TaskBoundResult& want,
                       const char* context) {
  EXPECT_EQ(got.wcrt, want.wcrt) << context;
  EXPECT_EQ(got.schedulable, want.schedulable) << context;
  EXPECT_EQ(got.exceeded_deadline, want.exceeded_deadline) << context;
}

void expect_same_wp(const WpResult& got, const WpResult& want,
                    const char* context) {
  EXPECT_EQ(got.schedulable, want.schedulable) << context;
  ASSERT_EQ(got.per_task.size(), want.per_task.size()) << context;
  for (std::size_t i = 0; i < got.per_task.size(); ++i) {
    expect_same_bound(got.per_task[i], want.per_task[i], context);
  }
}

void expect_same_proposed(const ProposedResult& got,
                          const ProposedResult& want, const char* context) {
  EXPECT_EQ(got.schedulable, want.schedulable) << context;
  EXPECT_EQ(got.rounds, want.rounds) << context;
  EXPECT_EQ(got.ls_flags, want.ls_flags) << context;
  ASSERT_EQ(got.per_task.size(), want.per_task.size()) << context;
  for (std::size_t i = 0; i < got.per_task.size(); ++i) {
    expect_same_bound(got.per_task[i], want.per_task[i], context);
  }
}

/// Small corpus of generated task sets spanning the interesting regimes
/// (comfortably schedulable through WP-failing / greedy-promoting).
std::vector<TaskSet> corpus() {
  std::vector<TaskSet> sets;
  const struct {
    double utilization, gamma;
    std::uint64_t seed;
  } points[] = {
      {0.50, 0.20, 11}, {0.60, 0.30, 22}, {0.70, 0.40, 33},
      {0.72, 0.45, 44}, {0.75, 0.45, 55}, {0.65, 0.50, 66},
  };
  for (const auto& p : points) {
    mcs::gen::GeneratorConfig cfg;
    cfg.num_tasks = 4;
    cfg.utilization = p.utilization;
    cfg.gamma = p.gamma;
    mcs::support::Rng rng(p.seed);
    sets.push_back(mcs::gen::generate_task_set(cfg, rng));
  }
  return sets;
}

// A warm engine that has already analyzed other task sets (and the same
// task set, repeatedly) must return exactly what a throwaway engine
// returns: carried sessions, patched formulations, and carried incumbents
// are invisible in the results.
TEST(AnalysisEngine, CarriedStateMatchesThrowawayAcrossCorpus) {
  const AnalysisOptions options = exact_options();
  AnalysisEngine warm;  // accumulates state across the whole corpus
  for (const TaskSet& tasks : corpus()) {
    const WpResult wp_warm = warm.analyze_wp(tasks, options);
    const ProposedResult prop_warm = warm.analyze_proposed(tasks, options);
    // Second pass over the same set: the greedy loop re-enters round 0
    // with formulations last patched for the final promoted marking, so
    // this exercises the LS-delta patch path in both directions.
    const ProposedResult prop_again = warm.analyze_proposed(tasks, options);

    AnalysisEngine fresh_wp, fresh_prop;
    expect_same_wp(wp_warm, fresh_wp.analyze_wp(tasks, options), "wp");
    const ProposedResult prop_fresh =
        fresh_prop.analyze_proposed(tasks, options);
    expect_same_proposed(prop_warm, prop_fresh, "proposed");
    expect_same_proposed(prop_again, prop_fresh, "proposed re-run");
  }
}

// The engine is serial: EngineConfig::threads accepts only 1.
TEST(AnalysisEngine, RejectsThreadCountsOtherThanOne) {
  EXPECT_THROW(AnalysisEngine(EngineConfig{0}),
               mcs::support::ContractViolation);
  EXPECT_THROW(AnalysisEngine(EngineConfig{4}),
               mcs::support::ContractViolation);
}

// A greedy round stops at the first deadline miss (paper §VI): when the
// highest-priority task misses as NLS and again once promoted to LS, each
// of the two rounds bounds exactly that one task and none below it.
TEST(AnalysisEngine, GreedyRoundStopsAtFirstMiss) {
  // "hp" cannot fit its own demand l + C + u = 140 into D = 120.
  const TaskSet tasks({make_task("hp", 100, 20, 400, 120, 0),
                       make_task("mid", 35, 12, 600, 560, 1),
                       make_task("lp", 50, 15, 900, 850, 2)});
  const AnalysisOptions options = exact_options();
  telemetry::set_enabled(true);
  AnalysisEngine engine;
  const std::uint64_t before = counter("analysis.tasks_analyzed");
  const ProposedResult r = engine.analyze_proposed(tasks, options);
  const std::uint64_t analyzed = counter("analysis.tasks_analyzed") - before;
  EXPECT_FALSE(r.schedulable);
  ASSERT_EQ(r.rounds, 2u);
  EXPECT_EQ(analyzed, r.rounds);
  EXPECT_TRUE(r.per_task[0].exceeded_deadline);
  for (mcs::rt::TaskIndex i = 1; i < tasks.size(); ++i) {
    EXPECT_EQ(r.per_task[i].wcrt, mcs::rt::kTimeMax);  // never bounded
    EXPECT_FALSE(r.per_task[i].schedulable);
  }
}

// The engine fingerprint compares arrival curves by value: a separately
// allocated curve with the same parameters keeps the cached formulations,
// while a different jitter on the same period drops them.
TEST(AnalysisEngine, ArrivalCurvesAreFingerprintedByValue) {
  const AnalysisOptions options = exact_options();
  const auto with_jitter = [](mcs::rt::Time jitter) {
    Task hp = make_task("hp", 20, 5, 200, 150, 0);
    hp.arrival = std::make_shared<mcs::rt::PeriodicJitterArrival>(200, jitter);
    return TaskSet({hp, make_task("lp", 30, 8, 300, 280, 1)});
  };
  const TaskSet first = with_jitter(10);
  const TaskSet same = with_jitter(10);  // both curves alive: new address
  ASSERT_NE(first[0].arrival.get(), same[0].arrival.get());
  const TaskSet other = with_jitter(40);

  telemetry::set_enabled(true);
  AnalysisEngine engine;
  (void)engine.bound_response_time(first, 1, options);

  const std::uint64_t builds = counter("analysis.milp_builds");
  const std::uint64_t hits = counter("analysis.milp_cache_hits");
  (void)engine.bound_response_time(same, 1, options);
  EXPECT_EQ(counter("analysis.milp_builds"), builds);
  EXPECT_GT(counter("analysis.milp_cache_hits"), hits);

  (void)engine.bound_response_time(other, 1, options);
  EXPECT_GT(counter("analysis.milp_builds"), builds);
}

// Injecting the WP verdict as greedy round 0 (what the experiment harness
// does) must be indistinguishable from letting the greedy loop compute
// round 0 itself: the all-NLS round-0 formulation coincides with WP's.
TEST(AnalysisEngine, WpRound0InjectionMatchesComputedRound0) {
  const AnalysisOptions options = exact_options();
  for (const TaskSet& tasks : corpus()) {
    AnalysisEngine engine_a, engine_b;
    const WpResult wp = engine_a.analyze_wp(tasks, options);
    const ProposedResult injected =
        engine_a.analyze_proposed(tasks, options, &wp);
    const ProposedResult computed = engine_b.analyze_proposed(tasks, options);
    expect_same_proposed(injected, computed, "round-0 injection");
  }
}

// The corpus must actually cover the greedy promotion path — otherwise the
// injection and re-run tests above would be vacuous for rounds > 1.
TEST(AnalysisEngine, CorpusExercisesGreedyPromotions) {
  const AnalysisOptions options = exact_options();
  std::size_t multi_round_sets = 0;
  AnalysisEngine engine;
  for (const TaskSet& tasks : corpus()) {
    if (engine.analyze_proposed(tasks, options).rounds > 1) {
      ++multi_round_sets;
    }
  }
  EXPECT_GE(multi_round_sets, 1u)
      << "tune the corpus: every set was WP-schedulable in round 0";
}

// Flipping LS flags back and forth retargets cached patchable formulations
// through column-bound patches; each marking must still bound exactly like
// a from-scratch build of that marking.
TEST(AnalysisEngine, LsMarkingPatchesMatchFreshBuilds) {
  const AnalysisOptions options = exact_options();
  TaskSet tasks({make_task("hp", 20, 8, 200, 150, 0),
                 make_task("mid", 35, 12, 300, 260, 1),
                 make_task("lp", 50, 15, 500, 420, 2)});
  AnalysisEngine warm;
  for (int pass = 0; pass < 2; ++pass) {
    for (int marking = 0; marking < 4; ++marking) {
      tasks[0].latency_sensitive = (marking & 1) != 0;
      tasks[1].latency_sensitive = (marking & 2) != 0;
      for (mcs::rt::TaskIndex i = 0; i < tasks.size(); ++i) {
        AnalysisEngine fresh;
        expect_same_bound(warm.bound_response_time(tasks, i, options),
                          fresh.bound_response_time(tasks, i, options),
                          "marking flip");
      }
    }
  }
}

// Changing task parameters (not flags) must invalidate carried state: the
// engine re-fingerprints on every call, so an edited task set analyzes as
// if the engine were new.
TEST(AnalysisEngine, ParameterEditDropsCarriedState) {
  const AnalysisOptions options = exact_options();
  TaskSet tasks({make_task("a", 20, 5, 200, 120, 0),
                 make_task("b", 30, 8, 300, 250, 1)});
  AnalysisEngine warm;
  (void)warm.analyze_wp(tasks, options);
  tasks[1].exec = 60;  // same shape, different numbers
  AnalysisEngine fresh;
  expect_same_wp(warm.analyze_wp(tasks, options),
                 fresh.analyze_wp(tasks, options), "after edit");
}

// The sensitivity search runs every probe on one engine, whose caches
// carry over from probe to probe; its brackets must still be real: the
// reported max factor analyzes schedulable from scratch and the failing
// bracket does not.
TEST(AnalysisEngine, SensitivityWarmStartBracketsAreReal) {
  const TaskSet tasks({make_task("a", 20, 5, 200, 120, 0),
                       make_task("b", 30, 8, 300, 250, 1),
                       make_task("c", 25, 6, 400, 380, 2)});
  mcs::analysis::SensitivityOptions options;
  options.analysis = exact_options();
  options.tolerance = 0.05;
  AnalysisEngine engine;
  const auto result = engine.max_scaling_factor(
      tasks, Approach::kProposed,
      mcs::analysis::ScalingDimension::kMemoryPhases, options);
  ASSERT_GT(result.max_factor, 0.0);
  ASSERT_GT(result.min_failing_factor, result.max_factor);

  const auto scale_mem = [&](double factor) {
    TaskSet scaled = tasks;
    for (mcs::rt::TaskIndex i = 0; i < scaled.size(); ++i) {
      scaled[i].copy_in = static_cast<mcs::rt::Time>(
          std::ceil(static_cast<double>(scaled[i].copy_in) * factor));
      scaled[i].copy_out = static_cast<mcs::rt::Time>(
          std::ceil(static_cast<double>(scaled[i].copy_out) * factor));
    }
    return scaled;
  };
  AnalysisEngine fresh_lo, fresh_hi;
  EXPECT_TRUE(fresh_lo
                  .analyze(scale_mem(result.max_factor), Approach::kProposed,
                           options.analysis)
                  .schedulable);
  EXPECT_FALSE(fresh_hi
                   .analyze(scale_mem(result.min_failing_factor),
                            Approach::kProposed, options.analysis)
                   .schedulable);
}

}  // namespace
