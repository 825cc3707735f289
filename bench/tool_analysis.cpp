// End-to-end analysis bench: one Fig. 2-style sweep point (a batch of
// generated task sets), each analyzed the way the experiment harness does —
// NPS, WP, and greedy-proposed when WP fails, with the WP verdict injected
// as greedy round 0 — on one AnalysisEngine per set.
//
// Every MILP is solved to proven optimality (relative_gap = 0), so the
// verdict counts and the work counts (B&B nodes, simplex pivots) are
// deterministic.  Writes BENCH_analysis.json; tools/perf_check.py requires
// the verdict counts to equal the committed baseline's and the work counts
// to stay within a growth bound of it.  Wall time is recorded, not gated.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

#include "bench_common.hpp"

using namespace mcs;

namespace {

/// Pivots of the reusable simplex solvers behind every B&B session, warm
/// and cold.  (lp.simplex_iterations counts only one-off solve_lp calls,
/// which this pipeline never makes.)
std::uint64_t simplex_pivots() {
  const support::telemetry::Snapshot snap = support::telemetry::snapshot();
  std::uint64_t total = 0;
  for (const char* name : {"simplex.warm_pivots", "simplex.cold_pivots"}) {
    const auto it = snap.counters.find(name);
    if (it != snap.counters.end()) total += it->second;
  }
  return total;
}

}  // namespace

namespace mcs::bench {

int tool_analysis_main() {
  // Fig. 2-style sweep point where WP often fails and the greedy LS-marking
  // loop carries weight: some WP-failing sets are rescued by LS marks, and
  // greedy rounds take about a third of the wall time.
  constexpr std::size_t kSets = 12;
  constexpr std::size_t kTasks = 5;
  constexpr double kUtilization = 0.35;
  constexpr double kGamma = 0.10;

  std::vector<rt::TaskSet> sets;
  support::Rng rng(4242);
  for (std::size_t s = 0; s < kSets; ++s) {
    gen::GeneratorConfig cfg;
    cfg.num_tasks = kTasks;
    cfg.utilization = kUtilization;
    cfg.gamma = kGamma;
    sets.push_back(gen::generate_task_set(cfg, rng));
  }

  analysis::AnalysisOptions options;
  options.milp.relative_gap = 0.0;  // proven optima: deterministic counts

  // The pivot count comes from telemetry; the bench insists on it so the
  // JSON is complete regardless of the environment.
  support::telemetry::set_enabled(true);
  const std::uint64_t pivots_before = simplex_pivots();

  std::size_t nps_schedulable = 0;
  std::size_t wp_failing = 0;
  std::size_t greedy_rescued = 0;  // WP fails, greedy LS marking succeeds
  std::size_t rounds_total = 0;
  // The proposed results' node counts include their injected WP round 0.
  std::size_t bb_nodes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const rt::TaskSet& tasks : sets) {
    analysis::AnalysisEngine engine;
    if (engine.analyze(tasks, analysis::Approach::kNonPreemptive, options)
            .schedulable) {
      ++nps_schedulable;
    }
    const analysis::WpResult wp = engine.analyze_wp(tasks, options);
    bb_nodes += wp.total_milp_nodes;
    if (wp.schedulable) continue;
    ++wp_failing;
    const analysis::ProposedResult prop =
        engine.analyze_proposed(tasks, options, &wp);
    bb_nodes += prop.total_milp_nodes;
    rounds_total += prop.rounds;
    if (prop.schedulable) ++greedy_rescued;
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const std::uint64_t pivots = simplex_pivots() - pivots_before;

  std::cout << "Analysis pipeline bench: " << kSets << " task sets (n="
            << kTasks << ", U=" << kUtilization << ", gamma=" << kGamma
            << ")\n  " << nps_schedulable << " NPS-schedulable, "
            << wp_failing << " WP-failing, " << greedy_rescued
            << " rescued by greedy, " << rounds_total
            << " greedy rounds total\n  " << bb_nodes << " B&B nodes, "
            << pivots << " simplex pivots, " << static_cast<long>(wall_ms)
            << " ms\n";

  std::ofstream json("BENCH_analysis.json");
  json << "{\n  \"schema\": \"mcs-bench-analysis-v2\",\n"
       << "  \"sweep_point\": {\"sets\": " << kSets << ", \"num_tasks\": "
       << kTasks << ", \"utilization\": " << kUtilization
       << ", \"gamma\": " << kGamma << "},\n"
       << "  \"verdicts\": {\"nps_schedulable\": " << nps_schedulable
       << ", \"wp_failing\": " << wp_failing
       << ", \"greedy_rescued\": " << greedy_rescued
       << ", \"greedy_rounds_total\": " << rounds_total << "},\n"
       << "  \"work\": {\"bb_nodes\": " << bb_nodes
       << ", \"simplex_pivots\": " << pivots << "},\n"
       << "  \"wall_ms\": " << static_cast<long>(wall_ms) << "\n}\n";
  json.close();
  std::cout << "wrote BENCH_analysis.json\n";

  write_bench_telemetry("analysis");
  return 0;
}

}  // namespace mcs::bench
