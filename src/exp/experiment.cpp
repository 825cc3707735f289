#include "exp/experiment.hpp"

#include <cerrno>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <string>

#include "analysis/engine.hpp"
#include "support/contracts.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"

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

// Metric order of experiment_sweep_spec; points_from_outcomes and
// write_csv rely on it.
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

double SweepPoint::ratio(Approach approach) const {
  if (tasksets == 0) return 0.0;
  std::size_t count = 0;
  switch (approach) {
    case Approach::kProposed:
      count = schedulable_proposed;
      break;
    case Approach::kWasilyPellizzoni:
      count = schedulable_wp;
      break;
    case Approach::kNonPreemptive:
      count = schedulable_nps;
      break;
  }
  return static_cast<double>(count) / static_cast<double>(tasksets);
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

std::vector<SweepPoint> points_from_outcomes(
    const ExperimentConfig& config,
    const std::vector<UnitOutcome>& outcomes) {
  const SweepSpec spec = experiment_sweep_spec(config);
  const std::vector<SweepRow> rows = aggregate_outcomes(spec, outcomes);

  // Per-point unit latency samples for the printed percentiles.
  std::vector<std::vector<double>> seconds(rows.size());
  for (const UnitOutcome& unit : outcomes) {
    seconds[unit.point].push_back(unit.seconds);
  }

  std::vector<SweepPoint> points;
  points.reserve(rows.size());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    const SweepRow& row = rows[p];
    SweepPoint point;
    point.x = row.x;
    point.tasksets = row.ok_units;
    point.errors = row.errors;
    point.schedulable_proposed =
        static_cast<std::size_t>(row.metric_sums[kProposed]);
    point.schedulable_wp = static_cast<std::size_t>(row.metric_sums[kWp]);
    point.schedulable_nps = static_cast<std::size_t>(row.metric_sums[kNps]);
    point.relaxation_fallbacks =
        static_cast<std::size_t>(row.metric_sums[kAnyFallback]);
    point.fallbacks_wp =
        static_cast<std::size_t>(row.metric_sums[kFallbackWp]);
    point.fallbacks_proposed =
        static_cast<std::size_t>(row.metric_sums[kFallbackProposed]);
    point.seconds = row.seconds;
    point.p50_seconds = support::percentile(seconds[p], 0.50);
    point.p90_seconds = support::percentile(seconds[p], 0.90);
    point.p99_seconds = support::percentile(seconds[p], 0.99);
    points.push_back(point);
  }
  return points;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  RunnerOptions options;
  options.threads = config.threads;
  return run_experiment(config, options);
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunnerOptions& options) {
  const support::telemetry::ScopedTimer timer("exp.run_experiment");
  const SweepSpec spec = experiment_sweep_spec(config);
  const SweepRunResult run = run_sweep(spec, options);

  ExperimentResult result;
  result.config = config;
  result.points = points_from_outcomes(config, run.outcomes);
  result.total_seconds = run.total_seconds;
  return result;
}

void print_result(const ExperimentResult& result, std::ostream& out) {
  const auto& cfg = result.config;
  out << "# " << cfg.name << " — " << cfg.title << "\n";
  out << "# base: n=" << cfg.base.num_tasks << " U=" << cfg.base.utilization
      << " gamma=" << cfg.base.gamma << " beta=" << cfg.base.beta
      << "; sweep over " << to_string(cfg.sweep) << "; "
      << cfg.tasksets_per_point << " task sets/point; seed=" << cfg.seed
      << "\n";
  out << std::left << std::setw(8) << to_string(cfg.sweep) << std::setw(12)
      << "proposed" << std::setw(12) << "wp2016" << std::setw(12) << "nps"
      << std::setw(12) << "fallbacks" << "seconds\n";
  for (const SweepPoint& p : result.points) {
    out << std::left << std::fixed << std::setprecision(3) << std::setw(8)
        << p.x << std::setw(12) << p.ratio(analysis::Approach::kProposed)
        << std::setw(12) << p.ratio(analysis::Approach::kWasilyPellizzoni)
        << std::setw(12) << p.ratio(analysis::Approach::kNonPreemptive)
        << std::setw(12) << p.relaxation_fallbacks << std::setprecision(2)
        << p.seconds;
    if (p.errors != 0) {
      out << "  (" << p.errors << " errors)";
    }
    out << "\n";
  }
  out << "# total: " << std::fixed << std::setprecision(1)
      << result.total_seconds << " s\n";
}

void write_csv(const ExperimentResult& result,
               const std::filesystem::path& directory) {
  const SweepSpec spec = experiment_sweep_spec(result.config);
  MCS_REQUIRE(result.points.size() == spec.values.size(),
              "result does not cover every sweep point");
  std::vector<SweepRow> rows;
  rows.reserve(result.points.size());
  for (const SweepPoint& p : result.points) {
    SweepRow row;
    row.x = p.x;
    row.ok_units = p.tasksets;
    row.errors = p.errors;
    row.metric_sums.assign(kMetricCount, 0);
    row.metric_sums[kProposed] = p.schedulable_proposed;
    row.metric_sums[kWp] = p.schedulable_wp;
    row.metric_sums[kNps] = p.schedulable_nps;
    row.metric_sums[kAnyFallback] = p.relaxation_fallbacks;
    row.metric_sums[kFallbackWp] = p.fallbacks_wp;
    row.metric_sums[kFallbackProposed] = p.fallbacks_proposed;
    row.seconds = p.seconds;
    rows.push_back(std::move(row));
  }
  write_sweep_csv(spec, rows, directory / (result.config.name + ".csv"));
}

namespace {

/// Full-string unsigned parse: the *entire* value must be a decimal number
/// within range.  Anything else (empty, trailing junk like "10x", signs,
/// overflow) fails loudly — a typo silently becoming seed 0 or 10 task
/// sets has burned whole sweeps before.
std::uint64_t parse_env_u64(const char* name, const char* value) {
  MCS_REQUIRE(value[0] != '\0',
              std::string(name) + " is set but empty");
  MCS_REQUIRE(value[0] >= '0' && value[0] <= '9',
              std::string(name) + "='" + value +
                  "' is not a non-negative decimal number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  MCS_REQUIRE(errno != ERANGE,
              std::string(name) + "='" + value + "' is out of range");
  MCS_REQUIRE(end != nullptr && *end == '\0',
              std::string(name) + "='" + value +
                  "' has trailing non-numeric characters");
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

void apply_env_overrides(ExperimentConfig& config) {
  if (const char* v = std::getenv("MCS_TASKSETS")) {
    const std::uint64_t parsed = parse_env_u64("MCS_TASKSETS", v);
    MCS_REQUIRE(parsed > 0, "MCS_TASKSETS must be >= 1");
    config.tasksets_per_point = static_cast<std::size_t>(parsed);
  }
  if (const char* v = std::getenv("MCS_SEED")) {
    config.seed = parse_env_u64("MCS_SEED", v);
  }
  if (const char* v = std::getenv("MCS_THREADS")) {
    // 0 is meaningful here: "use hardware concurrency".
    config.threads =
        static_cast<std::size_t>(parse_env_u64("MCS_THREADS", v));
  }
}

void apply_env_overrides(SweepSpec& spec) {
  if (const char* v = std::getenv("MCS_TASKSETS")) {
    const std::uint64_t parsed = parse_env_u64("MCS_TASKSETS", v);
    MCS_REQUIRE(parsed > 0, "MCS_TASKSETS must be >= 1");
    spec.slots_per_point = static_cast<std::size_t>(parsed);
  }
  if (const char* v = std::getenv("MCS_SEED")) {
    spec.seed = parse_env_u64("MCS_SEED", v);
  }
}

}  // namespace mcs::exp
