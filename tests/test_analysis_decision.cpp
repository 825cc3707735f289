// Decision mode against exact mode.  AnalysisEngine::decide stops each
// delay MILP's branch and bound once its fixpoint round's outcome is fixed;
// its verdicts, fallback flags and LS markings must equal what
// analyze_wp / analyze_proposed give on a fresh engine, and every WCRT it
// reports must be at least the exact one.  The task sets are the sweeps'
// own units: every Figure-2 configuration at its bench-scale solver
// effort, and the two ablations.
#include "analysis/engine.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/figures.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace {

using mcs::analysis::AnalysisEngine;
using mcs::analysis::AnalysisOptions;
using mcs::analysis::Approach;
using mcs::analysis::Decision;
using mcs::analysis::ProposedResult;
using mcs::analysis::SweepDecision;
using mcs::analysis::TaskBoundResult;
using mcs::analysis::WpResult;
using mcs::rt::TaskSet;
using mcs::support::Rng;

namespace telemetry = mcs::support::telemetry;

/// Slots drawn per sweep point (one for the slower n=6 insets).
constexpr std::size_t kSlots = 3;

std::uint64_t counter(const telemetry::Snapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Counts the searches decision mode paused while the test body ran.
class PauseCounter {
 public:
  PauseCounter() : was_enabled_(telemetry::enabled()) {
    telemetry::set_enabled(true);
    before_ = counter(telemetry::snapshot(), "milp.pauses");
  }
  ~PauseCounter() { telemetry::set_enabled(was_enabled_); }
  std::uint64_t pauses() const {
    return counter(telemetry::snapshot(), "milp.pauses") - before_;
  }

 private:
  bool was_enabled_;
  std::uint64_t before_ = 0;
};

void expect_wcrts_at_least(const Decision& decided,
                           const std::vector<TaskBoundResult>& exact,
                           const std::string& label) {
  ASSERT_EQ(decided.wcrt.size(), exact.size()) << label;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_GE(decided.wcrt[i], exact[i].wcrt) << label << " task " << i;
  }
}

/// The Figure-2 unit: decide() on one engine against a fresh engine's
/// analyze_wp and analyze_proposed (WP as round 0), as perfbench's
/// exact-mode mirror computes it.
void expect_sweep_unit_matches(const TaskSet& tasks,
                               const AnalysisOptions& options,
                               const std::string& label) {
  AnalysisEngine decider;
  const SweepDecision decided = decider.decide(tasks, options);

  AnalysisEngine exact;
  const WpResult wp = exact.analyze_wp(tasks, options);
  EXPECT_EQ(decided.wp.schedulable, wp.schedulable) << label;
  EXPECT_EQ(decided.wp.any_relaxation_fallback, wp.any_relaxation_fallback)
      << label;
  expect_wcrts_at_least(decided.wp, wp.per_task, label + " wp");

  if (wp.schedulable) {
    EXPECT_TRUE(decided.proposed.schedulable) << label;
    EXPECT_EQ(decided.proposed.any_relaxation_fallback,
              wp.any_relaxation_fallback)
        << label;
    EXPECT_EQ(decided.proposed.ls_flags,
              std::vector<bool>(tasks.size(), false))
        << label;
    return;
  }
  const ProposedResult prop = exact.analyze_proposed(tasks, options, &wp);
  EXPECT_EQ(decided.proposed.schedulable, prop.schedulable) << label;
  EXPECT_EQ(decided.proposed.any_relaxation_fallback,
            prop.any_relaxation_fallback)
      << label;
  EXPECT_EQ(decided.proposed.ls_flags, prop.ls_flags) << label;
  expect_wcrts_at_least(decided.proposed, prop.per_task,
                        label + " proposed");
}

mcs::gen::GeneratorConfig point_config(const mcs::exp::ExperimentConfig& cfg,
                                       double x) {
  mcs::gen::GeneratorConfig g = cfg.base;
  switch (cfg.sweep) {
    case mcs::exp::SweepParam::kUtilization:
      g.utilization = x;
      break;
    case mcs::exp::SweepParam::kGamma:
      g.gamma = x;
      break;
    case mcs::exp::SweepParam::kBeta:
      g.beta = x;
      break;
    case mcs::exp::SweepParam::kNumTasks:
      g.num_tasks = static_cast<std::size_t>(x);
      break;
  }
  return g;
}

class DecisionVsExactFigure2 : public ::testing::TestWithParam<char> {};

TEST_P(DecisionVsExactFigure2, SweepUnitsMatchExactMode) {
  const mcs::exp::ExperimentConfig cfg = mcs::exp::figure2_config(GetParam());
  const PauseCounter pauses;
  const std::size_t slots = cfg.base.num_tasks > 4 ? 1 : kSlots;
  for (std::size_t p = 0; p < cfg.values.size(); ++p) {
    for (std::size_t s = 0; s < slots; ++s) {
      Rng rng(mcs::support::derive_seed(cfg.seed, p, s));
      const TaskSet tasks =
          mcs::gen::generate_task_set(point_config(cfg, cfg.values[p]), rng);
      expect_sweep_unit_matches(tasks, cfg.analysis,
                                cfg.name + " point " + std::to_string(p) +
                                    " slot " + std::to_string(s));
    }
  }
  // The comparison means something only if searches did pause.
  EXPECT_GT(pauses.pauses(), 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(Insets, DecisionVsExactFigure2,
                         ::testing::Values('a', 'b', 'c', 'd', 'e', 'f'));

/// The ablations' solver effort (registry.cpp's bench_options).
AnalysisOptions ablation_options() {
  AnalysisOptions options;
  options.milp.relative_gap = 0.02;
  options.milp.max_nodes = 4000;
  return options;
}

TEST(DecisionVsExact, AblationLsVerdictsMatchExactMode) {
  // ablation_ls: n=4, U=0.35, gamma=0.25, beta swept; none / greedy / all.
  const AnalysisOptions options = ablation_options();
  const std::vector<double> betas = mcs::exp::range(0.05, 0.95, 0.15);
  const PauseCounter pauses;
  for (std::size_t p = 0; p < betas.size(); ++p) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      mcs::gen::GeneratorConfig cfg;
      cfg.num_tasks = 4;
      cfg.utilization = 0.35;
      cfg.gamma = 0.25;
      cfg.beta = betas[p];
      Rng rng(mcs::support::derive_seed(811, p, s));
      const TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
      const std::string label =
          "ablation_ls point " + std::to_string(p) + " slot " +
          std::to_string(s);

      const WpResult wp = AnalysisEngine().analyze_wp(tasks, options);
      const Decision wp_decided =
          AnalysisEngine().decide(tasks, Approach::kWasilyPellizzoni,
                                  options);
      EXPECT_EQ(wp_decided.schedulable, wp.schedulable) << label;
      expect_wcrts_at_least(wp_decided, wp.per_task, label + " wp");

      const ProposedResult prop =
          AnalysisEngine().analyze_proposed(tasks, options);
      const Decision greedy =
          AnalysisEngine().decide(tasks, Approach::kProposed, options);
      EXPECT_EQ(greedy.schedulable, prop.schedulable) << label;
      EXPECT_EQ(greedy.ls_flags, prop.ls_flags) << label;
      expect_wcrts_at_least(greedy, prop.per_task, label + " greedy");

      TaskSet all_ls = tasks;
      for (std::size_t i = 0; i < all_ls.size(); ++i) {
        all_ls[i].latency_sensitive = true;
      }
      AnalysisEngine decider;
      for (mcs::rt::TaskIndex i = 0; i < all_ls.size(); ++i) {
        EXPECT_EQ(decider.decide_task(all_ls, i, Approach::kProposed,
                                      options),
                  AnalysisEngine()
                      .bound_response_time(all_ls, i, options)
                      .schedulable)
            << label << " all-LS task " << i;
      }
    }
  }
  EXPECT_GT(pauses.pauses(), 0u);
}

TEST(DecisionVsExact, AblationPriorityOpaMatchesExactMode) {
  // ablation_priority: n=4, gamma=0.2, beta=0.3, U swept; Audsley's OPA
  // under WP with the decision-mode single-task test.
  const AnalysisOptions options = ablation_options();
  const std::vector<double> utils = mcs::exp::range(0.2, 0.6, 0.1);
  const PauseCounter pauses;
  for (std::size_t p = 0; p < utils.size(); ++p) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      mcs::gen::GeneratorConfig cfg;
      cfg.num_tasks = 4;
      cfg.utilization = utils[p];
      cfg.gamma = 0.2;
      cfg.beta = 0.3;
      Rng rng(mcs::support::derive_seed(271, p, s));
      const TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
      const std::string label = "ablation_priority point " +
                                std::to_string(p) + " slot " +
                                std::to_string(s);

      const mcs::analysis::OpaResult exact = AnalysisEngine().audsley_assign(
          tasks, Approach::kWasilyPellizzoni, options);
      AnalysisEngine decider;
      const mcs::analysis::OpaResult decided = mcs::analysis::audsley_assign(
          tasks, [&](const TaskSet& set, mcs::rt::TaskIndex i) {
            return decider.decide_task(set, i, Approach::kWasilyPellizzoni,
                                       options);
          });
      EXPECT_EQ(decided.schedulable, exact.schedulable) << label;
      EXPECT_EQ(decided.priorities, exact.priorities) << label;
      EXPECT_EQ(decided.test_count, exact.test_count) << label;
    }
  }
  EXPECT_GT(pauses.pauses(), 0u);
}

}  // namespace
