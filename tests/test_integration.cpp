// End-to-end integration tests: generator -> analysis (all approaches) ->
// simulator -> trace audit, plus cross-component consistency that none of the
// per-module suites can see.
#include <gtest/gtest.h>

#include "analysis/schedulability.hpp"
#include "check/trace_audit.hpp"
#include "exp/experiment.hpp"
#include "gen/generator.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::AnalysisOptions;
using mcs::analysis::analyze;
using mcs::analysis::Approach;
using mcs::gen::GeneratorConfig;
using mcs::gen::generate_task_set;
using mcs::rt::kTicksPerUnit;
using mcs::rt::TaskSet;
using mcs::sim::Protocol;
using mcs::support::Rng;

TEST(Integration, FullPipelineOnOneTaskSet) {
  Rng rng(1234);
  GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = 0.35;
  cfg.gamma = 0.25;
  cfg.beta = 0.5;
  TaskSet tasks = generate_task_set(cfg, rng);

  const auto proposed = analyze(tasks, Approach::kProposed);
  const auto wp = analyze(tasks, Approach::kWasilyPellizzoni);
  const auto nps = analyze(tasks, Approach::kNonPreemptive);

  // Greedy containment at the task-set level.
  if (wp.schedulable) {
    EXPECT_TRUE(proposed.schedulable);
  }

  // Every schedulable verdict must be confirmed by simulation.
  struct Case {
    Approach approach;
    Protocol protocol;
    const mcs::analysis::ApproachResult* result;
  };
  const Case cases[] = {
      {Approach::kProposed, Protocol::kProposed, &proposed},
      {Approach::kWasilyPellizzoni, Protocol::kWasilyPellizzoni, &wp},
      {Approach::kNonPreemptive, Protocol::kNonPreemptive, &nps},
  };
  for (const Case& c : cases) {
    if (!c.result->schedulable) continue;
    TaskSet marked = tasks;
    for (std::size_t i = 0; i < marked.size(); ++i) {
      marked[i].latency_sensitive = c.result->ls_flags[i];
    }
    const auto releases =
        mcs::sim::synchronous_periodic_releases(marked, 500 * kTicksPerUnit);
    const auto trace = mcs::sim::simulate(marked, c.protocol, releases);
    EXPECT_TRUE(trace.all_deadlines_met()) << to_string(c.approach);
    EXPECT_TRUE(mcs::check::audit_trace(marked, c.protocol, trace).clean())
        << to_string(c.approach);
  }
}

TEST(Integration, AnalysisIsDeterministic) {
  Rng rng(77);
  GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = 0.4;
  cfg.gamma = 0.3;
  const TaskSet tasks = generate_task_set(cfg, rng);
  const auto a = analyze(tasks, Approach::kProposed);
  const auto b = analyze(tasks, Approach::kProposed);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.wcrt, b.wcrt);
  EXPECT_EQ(a.ls_flags, b.ls_flags);
}

TEST(Integration, ExperimentPointMatchesManualLoop) {
  // One sweep point run through the harness must agree with analyzing the
  // same generated task sets by hand.
  mcs::exp::ExperimentConfig cfg;
  cfg.name = "manual";
  cfg.title = "cross-check";
  cfg.base.num_tasks = 3;
  cfg.base.gamma = 0.2;
  cfg.base.beta = 0.3;
  cfg.sweep = mcs::exp::SweepParam::kUtilization;
  cfg.values = {0.3};
  cfg.tasksets_per_point = 6;
  cfg.seed = 99;
  const mcs::exp::SweepSpec spec = mcs::exp::experiment_sweep_spec(cfg);
  mcs::exp::RunnerOptions options;
  options.threads = 1;
  const auto rows = mcs::exp::aggregate_outcomes(
      spec, mcs::exp::run_sweep(spec, options).outcomes);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].ok_units, cfg.tasksets_per_point);

  // Reproduce the harness's RNG discipline: one stream per (seed, point,
  // slot) tuple via derive_seed (see sweep_runner.hpp).
  std::size_t ok_nps = 0, ok_wp = 0, ok_prop = 0;
  for (std::size_t s = 0; s < cfg.tasksets_per_point; ++s) {
    GeneratorConfig g = cfg.base;
    g.utilization = 0.3;
    Rng rng(mcs::support::derive_seed(cfg.seed, 0, s));
    const TaskSet tasks = generate_task_set(g, rng);
    if (analyze(tasks, Approach::kNonPreemptive, cfg.analysis).schedulable) {
      ++ok_nps;
    }
    const bool wp =
        analyze(tasks, Approach::kWasilyPellizzoni, cfg.analysis).schedulable;
    ok_wp += wp ? std::size_t{1} : std::size_t{0};
    ok_prop += (wp || analyze(tasks, Approach::kProposed,
                              cfg.analysis).schedulable)
                   ? std::size_t{1}
                   : std::size_t{0};
  }
  // Metric columns: proposed, wp2016, nps, then the fallback counts.
  EXPECT_EQ(rows[0].metric_sums[2], ok_nps);
  EXPECT_EQ(rows[0].metric_sums[1], ok_wp);
  EXPECT_EQ(rows[0].metric_sums[0], ok_prop);
}

TEST(Integration, MulticorePartitionAnalyzesPerCore) {
  // The paper's partitioned-multicore story: generate a big set, partition
  // worst-fit, analyze each core in isolation (Section II).
  Rng rng(31);
  GeneratorConfig cfg;
  cfg.num_tasks = 9;
  cfg.utilization = 0.9;  // across 3 cores
  cfg.gamma = 0.2;
  const TaskSet flat = generate_task_set(cfg, rng);
  const auto cores = mcs::gen::partition_worst_fit(
      {flat.tasks().begin(), flat.tasks().end()}, 3);
  ASSERT_EQ(cores.size(), 3u);
  for (const TaskSet& core : cores) {
    if (core.empty()) continue;
    const auto result = analyze(core, Approach::kProposed);
    EXPECT_EQ(result.wcrt.size(), core.size());
    // Every per-core analysis must terminate with a verdict; low per-core
    // utilization makes these schedulable in practice.
    EXPECT_TRUE(result.schedulable);
  }
}

TEST(Integration, LpRelaxationModeRunsEndToEnd) {
  Rng rng(55);
  GeneratorConfig cfg;
  cfg.num_tasks = 5;
  cfg.utilization = 0.4;
  cfg.gamma = 0.3;
  const TaskSet tasks = generate_task_set(cfg, rng);
  AnalysisOptions fast;
  fast.lp_relaxation_only = true;
  const auto relaxed = analyze(tasks, Approach::kProposed, fast);
  const auto exact = analyze(tasks, Approach::kProposed);
  // Relaxation never accepts a set the exact analysis rejects.
  if (relaxed.schedulable) {
    EXPECT_TRUE(exact.schedulable);
  }
}

}  // namespace
