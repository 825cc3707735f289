#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace {

using mcs::analysis::Approach;
using mcs::exp::apply_env_overrides;
using mcs::exp::ExperimentConfig;
using mcs::exp::experiment_sweep_spec;
using mcs::exp::figure2_config;
using mcs::exp::SweepParam;
using mcs::exp::SweepRow;
using mcs::exp::SweepSpec;
using mcs::exp::SweepUnit;
using mcs::support::derive_seed;
using mcs::support::Rng;
namespace telemetry = mcs::support::telemetry;

// Metric columns of experiment_sweep_spec.
enum Column : std::size_t {
  kProposed = 0,
  kWp,
  kNps,
  kAnyFallback,
  kFallbackWp,
  kFallbackProposed,
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "tiny";
  cfg.title = "tiny smoke experiment";
  cfg.base.num_tasks = 3;
  cfg.base.gamma = 0.2;
  cfg.base.beta = 0.3;
  cfg.sweep = SweepParam::kUtilization;
  cfg.values = {0.15, 0.5};
  cfg.tasksets_per_point = 4;
  cfg.seed = 7;
  return cfg;
}

mcs::exp::SweepRunResult run(const SweepSpec& spec, std::size_t threads = 1) {
  mcs::exp::RunnerOptions options;
  options.threads = threads;
  return mcs::exp::run_sweep(spec, options);
}

std::vector<SweepRow> run_rows(const ExperimentConfig& cfg,
                               std::size_t threads = 1) {
  const SweepSpec spec = experiment_sweep_spec(cfg);
  return mcs::exp::aggregate_outcomes(spec, run(spec, threads).outcomes);
}

TEST(Experiment, RunsAndCountsConsistently) {
  const SweepSpec spec = experiment_sweep_spec(tiny_config());
  const mcs::exp::SweepRunResult result = run(spec);
  const std::vector<SweepRow> rows =
      mcs::exp::aggregate_outcomes(spec, result.outcomes);
  ASSERT_EQ(rows.size(), 2u);
  for (const SweepRow& r : rows) {
    const auto& m = r.metric_sums;
    EXPECT_EQ(r.ok_units, 4u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_LE(m[kProposed], r.ok_units);
    EXPECT_LE(m[kWp], r.ok_units);
    EXPECT_LE(m[kNps], r.ok_units);
    // Fallbacks are counted at most once per task set (regression: the WP
    // and Proposed analyses of one set used to tick the counter twice).
    EXPECT_LE(m[kAnyFallback], r.ok_units);
    EXPECT_LE(m[kFallbackWp], r.ok_units);
    EXPECT_LE(m[kFallbackProposed], r.ok_units);
    EXPECT_LE(m[kAnyFallback], m[kFallbackWp] + m[kFallbackProposed]);
    // Greedy containment: proposed dominates WP by construction.
    EXPECT_GE(m[kProposed], m[kWp]);
  }
  // Every unit did measurable work.
  for (const mcs::exp::UnitOutcome& unit : result.outcomes) {
    EXPECT_GT(unit.seconds, 0.0);
  }
  // Low utilization must not be harder than high utilization.
  EXPECT_GE(rows[0].metric_sums[kProposed], rows[1].metric_sums[kProposed]);
}

TEST(Experiment, DeterministicAcrossRunsAndThreadCounts) {
  const std::vector<SweepRow> a = run_rows(tiny_config(), 1);
  const std::vector<SweepRow> b = run_rows(tiny_config(), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok_units, b[i].ok_units);
    EXPECT_EQ(a[i].metric_sums, b[i].metric_sums);
  }
}

TEST(Experiment, WritesCsv) {
  const ExperimentConfig cfg = tiny_config();
  const auto path = std::filesystem::temp_directory_path() / "tiny.csv";
  mcs::exp::write_sweep_csv(experiment_sweep_spec(cfg), run_rows(cfg), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  // Deterministic schema: no wall-time columns (those live in the JSONL
  // log / telemetry), error count appended — see EXPERIMENTS.md.
  EXPECT_EQ(header,
            "U,proposed,wp2016,nps,relaxation_fallbacks,"
            "fallbacks_wp,fallbacks_proposed,tasksets,errors");
  std::string row;
  int rows = 0;
  while (std::getline(in, row)) {
    if (!row.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2);
  std::filesystem::remove(path);
}

TEST(Experiment, RejectsEmptyConfigs) {
  ExperimentConfig cfg = tiny_config();
  cfg.values.clear();
  EXPECT_THROW(experiment_sweep_spec(cfg), mcs::support::ContractViolation);
  cfg = tiny_config();
  cfg.tasksets_per_point = 0;
  EXPECT_THROW(experiment_sweep_spec(cfg), mcs::support::ContractViolation);
}

TEST(Experiment, EnvOverridesApply) {
  setenv("MCS_TASKSETS", "11", 1);
  setenv("MCS_SEED", "99", 1);
  SweepSpec spec = experiment_sweep_spec(tiny_config());
  apply_env_overrides(spec);
  EXPECT_EQ(spec.slots_per_point, 11u);
  EXPECT_EQ(spec.seed, 99u);
  // Registry sweeps come with the overrides applied.
  const SweepSpec fig = mcs::exp::find_sweep("fig2a")->make();
  EXPECT_EQ(fig.slots_per_point, 11u);
  EXPECT_EQ(fig.seed, 99u);
  unsetenv("MCS_TASKSETS");
  unsetenv("MCS_SEED");
}

TEST(Experiment, EnvOverridesRejectMalformedValues) {
  // Regression: "10x" used to parse as 10 and "abc" as seed 0 — silently.
  const auto expect_rejected = [](const char* name, const char* value) {
    setenv(name, value, 1);
    SweepSpec spec;
    spec.name = "env";
    spec.values = {0.5};
    EXPECT_THROW(apply_env_overrides(spec), mcs::support::ContractViolation)
        << name << "=" << value;
    unsetenv(name);
  };
  expect_rejected("MCS_TASKSETS", "10x");
  expect_rejected("MCS_TASKSETS", "abc");
  expect_rejected("MCS_TASKSETS", "");
  expect_rejected("MCS_TASKSETS", "0");
  expect_rejected("MCS_TASKSETS", "-3");
  expect_rejected("MCS_SEED", "abc");
  expect_rejected("MCS_SEED", "99 ");
  expect_rejected("MCS_SEED", "0x10");
  expect_rejected("MCS_SEED", "99999999999999999999999999");
}

TEST(Figure2Configs, AllInsetsWellFormed) {
  for (const char inset : {'a', 'b', 'c', 'd', 'e', 'f'}) {
    const ExperimentConfig cfg = figure2_config(inset);
    EXPECT_FALSE(cfg.name.empty());
    EXPECT_FALSE(cfg.values.empty());
    EXPECT_GT(cfg.tasksets_per_point, 0u);
    EXPECT_GE(cfg.base.num_tasks, 4u);
  }
  EXPECT_THROW(figure2_config('z'), mcs::support::ContractViolation);
}

TEST(Figure2Configs, SweepAxesMatchThePaper) {
  EXPECT_EQ(figure2_config('a').sweep, SweepParam::kUtilization);
  EXPECT_EQ(figure2_config('d').sweep, SweepParam::kUtilization);
  EXPECT_EQ(figure2_config('e').sweep, SweepParam::kGamma);
  EXPECT_EQ(figure2_config('f').sweep, SweepParam::kBeta);
  // gamma = 0.1 in (a) and (b), as stated in §VII.
  EXPECT_DOUBLE_EQ(figure2_config('a').base.gamma, 0.1);
  EXPECT_DOUBLE_EQ(figure2_config('b').base.gamma, 0.1);
}


TEST(Experiment, NumTasksSweepParam) {
  ExperimentConfig cfg = tiny_config();
  cfg.sweep = SweepParam::kNumTasks;
  cfg.values = {2, 4};
  const std::vector<SweepRow> rows = run_rows(cfg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].x, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].x, 4.0);
  // Both points ran the full task-set count.
  EXPECT_EQ(rows[0].ok_units, cfg.tasksets_per_point);
}

TEST(Experiment, SweepParamNames) {
  EXPECT_STREQ(to_string(SweepParam::kUtilization), "U");
  EXPECT_STREQ(to_string(SweepParam::kGamma), "gamma");
  EXPECT_STREQ(to_string(SweepParam::kBeta), "beta");
  EXPECT_STREQ(to_string(SweepParam::kNumTasks), "n");
}

// Task set of one Figure-2 unit, drawn the way the sweep draws it.
mcs::rt::TaskSet unit_task_set(const ExperimentConfig& cfg, double x,
                               Rng& rng) {
  mcs::gen::GeneratorConfig g = cfg.base;
  switch (cfg.sweep) {
    case SweepParam::kUtilization:
      g.utilization = x;
      break;
    case SweepParam::kGamma:
      g.gamma = x;
      break;
    case SweepParam::kBeta:
      g.beta = x;
      break;
    case SweepParam::kNumTasks:
      g.num_tasks = static_cast<std::size_t>(x);
      break;
  }
  return mcs::gen::generate_task_set(g, rng);
}

std::uint64_t counter(const std::string& name) {
  const telemetry::Snapshot snap = telemetry::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// One Figure-2 unit evaluated with a full WP pass (every task bounded by
// analyze_wp), then greedy seeded with it: the reference for the sweep's
// verdict-only WP pass.
struct ReferenceUnit {
  std::vector<std::uint64_t> metrics;
  mcs::analysis::WpResult wp;
  std::vector<mcs::rt::TaskIndex> order;  ///< priority order
  std::uint64_t proposed_tasks_analyzed = 0;
};

ReferenceUnit reference_unit(const ExperimentConfig& cfg, double x,
                             Rng& rng) {
  const mcs::rt::TaskSet tasks = unit_task_set(cfg, x, rng);
  mcs::analysis::AnalysisEngine engine;
  const auto nps =
      engine.analyze(tasks, Approach::kNonPreemptive, cfg.analysis);
  ReferenceUnit ref;
  ref.order = tasks.by_priority();
  ref.wp = engine.analyze_wp(tasks, cfg.analysis);
  const std::uint64_t before = counter("analysis.tasks_analyzed");
  const auto prop = engine.analyze_proposed(tasks, cfg.analysis, &ref.wp);
  ref.proposed_tasks_analyzed = counter("analysis.tasks_analyzed") - before;
  const bool wp_fb = ref.wp.any_relaxation_fallback;
  const bool prop_ok = ref.wp.schedulable || prop.schedulable;
  const bool prop_fb =
      ref.wp.schedulable ? wp_fb : prop.any_relaxation_fallback;
  ref.metrics = {prop_ok ? 1u : 0u,
                 ref.wp.schedulable ? 1u : 0u,
                 nps.schedulable ? 1u : 0u,
                 (wp_fb || prop_fb) ? 1u : 0u,
                 wp_fb ? 1u : 0u,
                 prop_fb ? 1u : 0u};
  return ref;
}

SweepUnit sweep_unit(const SweepSpec& spec, std::size_t p, std::size_t s) {
  SweepUnit unit;
  unit.index = p * spec.slots_per_point + s;
  unit.point = p;
  unit.slot = s;
  unit.x = spec.values[p];
  return unit;
}

// The sweep's WP pass stops once the WP verdict and the WP fallback flag
// are both decided.  Its six metrics must equal those of a full WP pass on
// every unit, including units whose first miss comes before any
// relaxation, where the pass has to keep going to settle the flag.
TEST(Figure2Sweeps, VerdictOnlyWpPassMatchesFullWpPass) {
  telemetry::set_enabled(true);
  std::size_t miss_before_relaxation = 0;
  std::size_t relaxation_only_after_miss = 0;
  for (const char inset : {'a', 'b', 'c', 'd', 'e', 'f'}) {
    ExperimentConfig cfg = figure2_config(inset);
    cfg.tasksets_per_point = 3;
    const SweepSpec spec = experiment_sweep_spec(cfg);
    ASSERT_EQ(spec.metrics.size(), 6u);
    for (std::size_t p = 0; p < spec.values.size(); ++p) {
      for (std::size_t s = 0; s < spec.slots_per_point; ++s) {
        const SweepUnit unit = sweep_unit(spec, p, s);
        Rng rng(derive_seed(spec.seed, p, s));
        const std::vector<std::uint64_t> got = spec.evaluate(unit, rng);
        Rng ref_rng(derive_seed(spec.seed, p, s));
        const ReferenceUnit ref = reference_unit(cfg, unit.x, ref_rng);
        EXPECT_EQ(got, ref.metrics)
            << cfg.name << " point " << p << " slot " << s;

        // Walk the full pass in priority order: was the first miss seen
        // before any relaxation, and did one appear only after it?
        bool relaxed = false;
        for (const mcs::rt::TaskIndex i : ref.order) {
          const auto& b = ref.wp.per_task[i];
          relaxed |= b.used_relaxation_bound;
          if (b.schedulable) continue;
          if (!relaxed) {
            ++miss_before_relaxation;
            if (ref.wp.any_relaxation_fallback) ++relaxation_only_after_miss;
          }
          break;
        }
      }
    }
  }
  EXPECT_GT(miss_before_relaxation, 0u);
  EXPECT_GT(relaxation_only_after_miss, 0u);
}

// Fig. 2(e), first point, first slot: the highest-priority task misses WP
// on a bound that stopped at the 2% MILP gap.  Both recorded WP facts are
// then decided after one task, so the sweep's WP pass bounds that task
// only: evaluate analyzes one task more than the greedy loop, not n more.
TEST(Figure2Sweeps, WpPassStopsAfterDecidingTopPriorityMiss) {
  telemetry::set_enabled(true);
  ExperimentConfig cfg = figure2_config('e');
  cfg.tasksets_per_point = 1;
  const SweepSpec spec = experiment_sweep_spec(cfg);
  const SweepUnit unit = sweep_unit(spec, 0, 0);

  Rng set_rng(derive_seed(spec.seed, 0, 0));
  const mcs::rt::TaskSet tasks = unit_task_set(cfg, unit.x, set_rng);
  ASSERT_GT(tasks.size(), 1u);
  mcs::analysis::AnalysisOptions wp_options = cfg.analysis;
  wp_options.ignore_ls = true;
  mcs::analysis::AnalysisEngine probe;
  const std::uint64_t gaps = counter("analysis.fallbacks.gap_terminated");
  const auto top =
      probe.bound_response_time(tasks, tasks.by_priority().front(), wp_options);
  ASSERT_FALSE(top.schedulable);
  ASSERT_TRUE(top.used_relaxation_bound);
  ASSERT_GT(counter("analysis.fallbacks.gap_terminated"), gaps);

  Rng ref_rng(derive_seed(spec.seed, 0, 0));
  const ReferenceUnit ref = reference_unit(cfg, unit.x, ref_rng);
  Rng rng(derive_seed(spec.seed, 0, 0));
  const std::uint64_t before = counter("analysis.tasks_analyzed");
  EXPECT_EQ(spec.evaluate(unit, rng), ref.metrics);
  EXPECT_EQ(counter("analysis.tasks_analyzed") - before,
            1 + ref.proposed_tasks_analyzed);
}

}  // namespace
