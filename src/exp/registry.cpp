#include "exp/registry.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "analysis/engine.hpp"
#include "analysis/opa.hpp"
#include "analysis/response_time.hpp"
#include "analysis/schedulability.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "gen/generator.hpp"
#include "support/contracts.hpp"

namespace mcs::exp {

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

/// Registry entry point: every sweep reaches mcs_bench through here, so
/// the environment overrides apply to all of them the same way.
template <SweepSpec (*Make)()>
SweepSpec with_env_overrides() {
  SweepSpec spec = Make();
  apply_env_overrides(spec);
  return spec;
}

/// Bench-scale solver effort shared by the ablation sweeps (matches
/// figure2_config): 2% relative gap, bounded node budget.
analysis::AnalysisOptions bench_options() {
  analysis::AnalysisOptions options;
  options.milp.relative_gap = 0.02;
  options.milp.max_nodes = 4000;
  return options;
}

template <char Inset>
SweepSpec make_figure2() {
  return experiment_sweep_spec(figure2_config(Inset));
}

// The ablations record verdicts only (no fallback column), so every
// analysis below runs in the engine's decision mode, whose searches stop
// as soon as a round's outcome is fixed (DESIGN.md §5.15).

/// Schedulability with a fixed all-LS marking (no greedy).
bool all_ls_schedulable(rt::TaskSet tasks,
                        const analysis::AnalysisOptions& options) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].latency_sensitive = true;
  }
  analysis::AnalysisEngine engine;
  for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    if (!engine.decide_task(tasks, i, analysis::Approach::kProposed,
                            options)) {
      return false;
    }
  }
  return true;
}

/// WP verdict (the analysis of [3]) under the task set's priorities.
bool wp_schedulable(const rt::TaskSet& tasks,
                    const analysis::AnalysisOptions& options) {
  analysis::AnalysisEngine engine;
  return engine.decide(tasks, analysis::Approach::kWasilyPellizzoni, options)
      .schedulable;
}

// LS-marking ablation (paper §VI): the greedy algorithm marks tasks
// latency-sensitive one deadline-miss at a time.  Compares, as deadline
// tightness beta varies: none (the analysis of [3]) / greedy (the paper's
// algorithm) / all (every task LS — predicted to backfire: urgent
// executions serialize copy-ins and every cancellation re-issues a load).
std::vector<std::uint64_t> evaluate_ablation_ls(const SweepUnit& unit,
                                                support::Rng& rng) {
  const analysis::AnalysisOptions options = bench_options();
  gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = 0.35;
  cfg.gamma = 0.25;
  cfg.beta = unit.x;
  const rt::TaskSet tasks = gen::generate_task_set(cfg, rng);

  const bool none_ok = wp_schedulable(tasks, options);
  const bool greedy_ok =
      none_ok || analysis::AnalysisEngine()
                     .decide(tasks, analysis::Approach::kProposed, options)
                     .schedulable;
  const bool all_ok = all_ls_schedulable(tasks, options);
  return std::vector<std::uint64_t>{none_ok ? 1u : 0u, greedy_ok ? 1u : 0u,
                                    all_ok ? 1u : 0u};
}

SweepSpec make_ablation_ls() {
  return SweepSpec{
      .name = "ablation_ls",
      .title = "LS-marking ablation (n=4, U=0.35, gamma=0.25)",
      .axis = "beta",
      .values = range(0.05, 0.95, 0.15),
      .slots_per_point = 25,
      .seed = 811,
      .metrics = {{"none", MetricSpec::kRatio},
                  {"greedy", MetricSpec::kRatio},
                  {"all", MetricSpec::kRatio}},
      .evaluate = &evaluate_ablation_ls,
  };
}

// Priority-assignment ablation: deadline-monotonic (the default, DESIGN.md
// §5.2) versus Audsley's optimal priority assignment under the NPS and
// WP2016 analyses, across utilization.  OPA dominates DM by construction;
// the gap measures how much the default leaves on the table under
// non-preemptive blocking.
std::vector<std::uint64_t> evaluate_ablation_priority(const SweepUnit& unit,
                                                      support::Rng& rng) {
  const analysis::AnalysisOptions options = bench_options();
  gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = unit.x;
  cfg.gamma = 0.2;
  cfg.beta = 0.3;
  const rt::TaskSet tasks = gen::generate_task_set(cfg, rng);

  const bool n_dm =
      analysis::analyze(tasks, analysis::Approach::kNonPreemptive, options)
          .schedulable;
  const bool n_opa =
      n_dm ||
      audsley_assign(tasks, analysis::Approach::kNonPreemptive, options)
          .schedulable;
  const bool w_dm = wp_schedulable(tasks, options);
  analysis::AnalysisEngine engine;
  const bool w_opa =
      w_dm ||
      analysis::audsley_assign(tasks, [&](const rt::TaskSet& set,
                                          rt::TaskIndex i) {
        return engine.decide_task(set, i,
                                  analysis::Approach::kWasilyPellizzoni,
                                  options);
      }).schedulable;
  return std::vector<std::uint64_t>{n_dm ? 1u : 0u, n_opa ? 1u : 0u,
                                    w_dm ? 1u : 0u, w_opa ? 1u : 0u};
}

SweepSpec make_ablation_priority() {
  return SweepSpec{
      .name = "ablation_priority",
      .title = "priority assignment ablation (n=4, gamma=0.2)",
      .axis = "U",
      .values = range(0.2, 0.6, 0.1),
      .slots_per_point = 25,
      .seed = 271,
      .metrics = {{"nps_dm", MetricSpec::kRatio},
                  {"nps_opa", MetricSpec::kRatio},
                  {"wp_dm", MetricSpec::kRatio},
                  {"wp_opa", MetricSpec::kRatio}},
      .evaluate = &evaluate_ablation_priority,
  };
}

}  // namespace

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

const std::vector<SweepEntry>& sweep_registry() {
  static const std::vector<SweepEntry> entries = {
      {"fig2a", "schedulability vs U (n=4, gamma=0.1)",
       &with_env_overrides<make_figure2<'a'>>},
      {"fig2b", "schedulability vs U (n=6, gamma=0.1)",
       &with_env_overrides<make_figure2<'b'>>},
      {"fig2c", "schedulability vs U (n=4, gamma=0.4)",
       &with_env_overrides<make_figure2<'c'>>},
      {"fig2d", "schedulability vs U (n=6, gamma=0.4)",
       &with_env_overrides<make_figure2<'d'>>},
      {"fig2e", "schedulability vs gamma (n=4, U=0.35)",
       &with_env_overrides<make_figure2<'e'>>},
      {"fig2f", "schedulability vs beta (n=4, U=0.35)",
       &with_env_overrides<make_figure2<'f'>>},
      {"ablation_ls", "LS-marking ablation: none / greedy / all",
       &with_env_overrides<make_ablation_ls>},
      {"ablation_priority", "priority assignment: DM vs Audsley OPA",
       &with_env_overrides<make_ablation_priority>},
  };
  return entries;
}

const SweepEntry* find_sweep(std::string_view name) {
  for (const SweepEntry& entry : sweep_registry()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace mcs::exp
