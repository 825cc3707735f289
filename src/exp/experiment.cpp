#include "exp/experiment.hpp"

#include "analysis/engine.hpp"
#include "support/contracts.hpp"

namespace mcs::exp {

namespace {

using analysis::Approach;

gen::GeneratorConfig configure_point(const ExperimentConfig& config,
                                     double x) {
  gen::GeneratorConfig g = config.base;
  switch (config.sweep) {
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
  return g;
}

// Metric order of experiment_sweep_spec's columns.
enum Metric : std::size_t {
  kProposed = 0,
  kWp,
  kNps,
  kAnyFallback,
  kFallbackWp,
  kFallbackProposed,
  kMetricCount,
};

}  // namespace

const char* to_string(SweepParam param) noexcept {
  switch (param) {
    case SweepParam::kUtilization:
      return "U";
    case SweepParam::kGamma:
      return "gamma";
    case SweepParam::kBeta:
      return "beta";
    case SweepParam::kNumTasks:
      return "n";
  }
  return "x";
}

SweepSpec experiment_sweep_spec(const ExperimentConfig& config) {
  MCS_REQUIRE(!config.values.empty(), "experiment without sweep points");
  MCS_REQUIRE(config.tasksets_per_point > 0, "experiment without task sets");

  SweepSpec spec;
  spec.name = config.name;
  spec.title = config.title;
  spec.axis = to_string(config.sweep);
  spec.values = config.values;
  spec.slots_per_point = config.tasksets_per_point;
  spec.seed = config.seed;
  spec.metrics = {
      {"proposed", MetricSpec::kRatio},
      {"wp2016", MetricSpec::kRatio},
      {"nps", MetricSpec::kRatio},
      // relaxation_fallbacks counts *task sets* with any dual-bound
      // fallback (<= tasksets); fallbacks_wp / fallbacks_proposed split it
      // per analysis.
      {"relaxation_fallbacks", MetricSpec::kCount},
      {"fallbacks_wp", MetricSpec::kCount},
      {"fallbacks_proposed", MetricSpec::kCount},
  };
  spec.evaluate = [config](const SweepUnit& unit, support::Rng& rng) {
    const gen::GeneratorConfig gen_cfg = configure_point(config, unit.x);
    const rt::TaskSet tasks = gen::generate_task_set(gen_cfg, rng);

    // One analysis engine per task set (serial inside — the sweep already
    // parallelizes across units).  The unit records verdicts and fallback
    // flags only, so WP and proposed run in decision mode: WP stops once a
    // miss and a relaxation have both been seen, greedy marking starts
    // from the WP prefix as its round 0, and each delay MILP's search
    // stops once its round's outcome is fixed.  Verdicts and flags equal
    // exact mode's analyze_wp / analyze_proposed (DESIGN.md §5.15).
    analysis::AnalysisEngine engine;

    const auto nps =
        engine.analyze(tasks, Approach::kNonPreemptive, config.analysis);
    const analysis::SweepDecision decided =
        engine.decide(tasks, config.analysis);
    const analysis::Decision& wp = decided.wp;
    const bool proposed_ok = decided.proposed.schedulable;
    const bool proposed_fb = decided.proposed.any_relaxation_fallback;

    std::vector<std::uint64_t> metrics(kMetricCount, 0);
    metrics[kProposed] = proposed_ok ? 1 : 0;
    metrics[kWp] = wp.schedulable ? 1 : 0;
    metrics[kNps] = nps.schedulable ? 1 : 0;
    // At most one fallback tick per task set, whichever analyses tripped
    // it — keeps the column <= tasksets.
    metrics[kAnyFallback] =
        (wp.any_relaxation_fallback || proposed_fb) ? 1 : 0;
    metrics[kFallbackWp] = wp.any_relaxation_fallback ? 1 : 0;
    metrics[kFallbackProposed] = proposed_fb ? 1 : 0;
    return metrics;
  };
  return spec;
}

}  // namespace mcs::exp
