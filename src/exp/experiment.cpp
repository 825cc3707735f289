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
    // parallelizes across units).  The three approaches keep separate
    // cache entries: NPS its memo, WP the ignore_ls slot, proposed the LS
    // slots, which its greedy rounds patch from round to round.
    analysis::AnalysisEngine engine;

    const auto nps =
        engine.analyze(tasks, Approach::kNonPreemptive, config.analysis);

    // Verdict-only WP pass.  The unit records WP's verdict and its fallback
    // flag, and greedy round 0 reads the WP bounds only in priority order up
    // to the first miss.  So bound in priority order and stop once both
    // recorded facts are decided: a miss has been seen and some bound used
    // a relaxation.  Skipped entries stay TaskBoundResult{}, and only the
    // two recorded facts are folded in.  WP bounds live in their own cache
    // slot (ignore_ls), so every bound computed here, and every later
    // proposed bound, is bit-identical to what a full analyze_wp pass
    // would give.
    analysis::AnalysisOptions wp_options = config.analysis;
    wp_options.ignore_ls = true;
    analysis::WpResult wp;
    wp.schedulable = true;
    wp.per_task.assign(tasks.size(), analysis::TaskBoundResult{});
    for (const rt::TaskIndex i : tasks.by_priority()) {
      const analysis::TaskBoundResult& b = wp.per_task[i] =
          engine.bound_response_time(tasks, i, wp_options);
      wp.any_relaxation_fallback |= b.used_relaxation_bound;
      wp.schedulable = wp.schedulable && b.schedulable;
      if (!wp.schedulable && wp.any_relaxation_fallback) break;
    }

    // Greedy round 0 equals the WP analysis.  When WP succeeded its
    // verdict *is* the proposed one (round 0 all-NLS, schedulable) —
    // including any reliance on a relaxation fallback.  Otherwise hand the
    // WP prefix to the greedy loop as its round 0 so it starts promoting
    // directly.
    bool proposed_ok = wp.schedulable;
    bool proposed_fb = false;
    if (proposed_ok) {
      proposed_fb = wp.any_relaxation_fallback;
    } else {
      const auto prop =
          engine.analyze_proposed(tasks, config.analysis, &wp);
      proposed_ok = prop.schedulable;
      proposed_fb = prop.any_relaxation_fallback;
    }

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
