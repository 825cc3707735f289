// End-to-end analysis bench: one Fig. 2-style sweep point (a batch of
// generated task sets, each analyzed the three ways the experiment harness
// does — NPS, WP, and greedy-proposed when WP fails) timed under three
// configurations:
//
//   * "legacy"            — the free functions, i.e. a throwaway
//                           AnalysisEngine per call: no state survives
//                           between the WP pass and the greedy rounds;
//   * "engine, threads=1" — one AnalysisEngine per task set, WP verdict
//                           injected as greedy round 0, formulations and
//                           B&B sessions carried across rounds;
//   * "engine, threads=4" — same, with the WP pass's per-task bounds fanned
//                           out on the engine's thread pool (greedy rounds
//                           stop at the first miss and stay sequential).
//
// All modes solve to proven optimality (relative_gap = 0) so the verdicts
// are mode-independent by construction — the bench hard-fails on any
// disagreement, making it a cheap end-to-end determinism check on top of
// the timing.
//
// A second axis measures the sweep *runner*: the same heterogeneous unit
// mix executed with the legacy per-point barrier versus the global work
// queue (exp::run_sweep with barrier_per_point on/off).  Unit durations are
// a deterministic replay (sleeps), so the axis isolates scheduling shape
// from solver noise and is meaningful even on a single-core CI box; the
// two modes must also produce identical aggregated metrics (a differential
// determinism check on the runner).  Writes BENCH_analysis.json;
// tools/perf_check.py gates both the engine speedup and the queue-vs-
// barrier sweep-wall speedup against the committed baseline in CI.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/greedy.hpp"
#include "analysis/schedulability.hpp"
#include "exp/sweep_runner.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

#include "bench_common.hpp"

using namespace mcs;

namespace {

// One verdict row per task set; must be identical in every mode.
struct Verdict {
  bool nps = false;
  bool wp = false;
  bool proposed = false;
  std::size_t greedy_rounds = 0;

  bool operator==(const Verdict&) const = default;
};

struct ModeResult {
  std::string name;
  bool engine = false;
  std::size_t threads = 1;
  double wall_ms = 0.0;
  std::vector<Verdict> verdicts;
};

// The experiment-harness pipeline for one task set.  `engine == nullptr`
// selects the legacy free functions (each call builds and discards its own
// session state, and the greedy loop recomputes its WP-equivalent round 0).
Verdict analyze_set(const rt::TaskSet& tasks,
                    const analysis::AnalysisOptions& options,
                    analysis::AnalysisEngine* engine) {
  Verdict v;
  if (engine != nullptr) {
    v.nps = engine->analyze(tasks, analysis::Approach::kNonPreemptive,
                            options)
                .schedulable;
    const auto wp = engine->analyze_wp(tasks, options);
    v.wp = wp.schedulable;
    if (wp.schedulable) {
      v.proposed = true;
      v.greedy_rounds = 0;
    } else {
      const auto prop = engine->analyze_proposed(tasks, options, &wp);
      v.proposed = prop.schedulable;
      v.greedy_rounds = prop.rounds;
    }
  } else {
    v.nps = analysis::analyze(tasks, analysis::Approach::kNonPreemptive,
                              options)
                .schedulable;
    const auto wp = analysis::analyze_wp(tasks, options);
    v.wp = wp.schedulable;
    if (wp.schedulable) {
      v.proposed = true;
      v.greedy_rounds = 0;
    } else {
      const auto prop = analysis::analyze_proposed(tasks, options);
      v.proposed = prop.schedulable;
      v.greedy_rounds = prop.rounds;
    }
  }
  return v;
}

ModeResult run_mode(const std::string& name, bool use_engine,
                    std::size_t threads,
                    const std::vector<rt::TaskSet>& sets,
                    const analysis::AnalysisOptions& options,
                    int repetitions) {
  ModeResult mode;
  mode.name = name;
  mode.engine = use_engine;
  mode.threads = threads;
  mode.wall_ms = 0.0;
  // Best-of-k wall time: the sweep itself is deterministic, so repetition
  // only filters out scheduler noise.
  for (int rep = 0; rep < repetitions; ++rep) {
    std::vector<Verdict> verdicts;
    verdicts.reserve(sets.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const rt::TaskSet& tasks : sets) {
      if (use_engine) {
        analysis::AnalysisEngine engine(analysis::EngineConfig{threads});
        verdicts.push_back(analyze_set(tasks, options, &engine));
      } else {
        verdicts.push_back(analyze_set(tasks, options, nullptr));
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < mode.wall_ms) mode.wall_ms = ms;
    mode.verdicts = std::move(verdicts);
  }
  return mode;
}

// --- sweep-wall axis ------------------------------------------------------

/// Deterministic duration-replay sweep: each point has one 40 ms straggler
/// unit among 4 ms units — the heterogeneous mix of a real U sweep, where
/// high-utilization points carry a few MILP-heavy task sets.  Sleeping
/// units parallelize on any core count, so the barrier-vs-queue contrast
/// survives a single-core CI runner.
exp::SweepSpec sweep_wall_spec() {
  exp::SweepSpec spec;
  spec.name = "sweep_wall_replay";
  spec.title = "duration-replay sweep for barrier-vs-queue wall time";
  spec.axis = "U";
  spec.values = {0.1, 0.25, 0.4, 0.55, 0.7, 0.85};
  spec.slots_per_point = 8;
  spec.seed = 7;
  spec.metrics = {{"draw", exp::MetricSpec::kCount}};
  spec.evaluate = [](const exp::SweepUnit& unit, support::Rng& rng) {
    const bool straggler =
        unit.slot == unit.point % 8;  // one per point, position varies
    std::this_thread::sleep_for(
        std::chrono::milliseconds(straggler ? 40 : 4));
    // A per-unit RNG draw as the metric: the barrier/queue aggregate
    // equality below then also checks unit seeding, not just scheduling.
    return std::vector<std::uint64_t>{rng() % 1000};
  };
  return spec;
}

double best_sweep_wall_ms(const exp::SweepSpec& spec, bool barrier,
                          int repetitions,
                          std::vector<exp::SweepRow>* rows_out) {
  exp::RunnerOptions options;
  options.threads = 4;
  options.barrier_per_point = barrier;
  double best_ms = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const exp::SweepRunResult run = exp::run_sweep(spec, options);
    const double ms = run.total_seconds * 1000.0;
    if (rep == 0 || ms < best_ms) best_ms = ms;
    if (rows_out != nullptr) {
      *rows_out = exp::aggregate_outcomes(spec, run.outcomes);
    }
  }
  return best_ms;
}

bool same_rows(const std::vector<exp::SweepRow>& a,
               const std::vector<exp::SweepRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].ok_units != b[i].ok_units ||
        a[i].errors != b[i].errors ||
        a[i].metric_sums != b[i].metric_sums) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace mcs::bench {

int tool_analysis_main() {
  // Fig. 2-style sweep point where WP often fails and the greedy LS-marking
  // loop carries weight: some WP-failing sets are rescued by LS marks, so
  // greedy rounds bound every task (about a third of the wall time) — the
  // rounds the engine's WP round-0 injection and cross-round reuse target.
  // At heavier points (e.g. U=0.7, gamma=0.4) the first miss is a
  // high-priority task, greedy rounds stop almost at once, and the NPS and
  // WP passes, identical in every mode, are >99% of the time.
  constexpr std::size_t kSets = 12;
  constexpr std::size_t kTasks = 5;
  constexpr double kUtilization = 0.35;
  constexpr double kGamma = 0.10;
  constexpr int kReps = 2;

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
  options.milp.relative_gap = 0.0;  // proven optima: mode-independent

  // A fixed worker count, not hardware concurrency: the recorded threads-N
  // figure must mean the same thing on every machine.
  constexpr std::size_t n_threads = 4;

  std::vector<ModeResult> modes;
  modes.push_back(
      run_mode("legacy free functions", false, 1, sets, options, kReps));
  modes.push_back(
      run_mode("engine, threads=1", true, 1, sets, options, kReps));
  modes.push_back(run_mode("engine, threads=" + std::to_string(n_threads),
                           true, n_threads, sets, options, kReps));

  for (std::size_t m = 1; m < modes.size(); ++m) {
    if (modes[m].verdicts != modes[0].verdicts) {
      std::cerr << "FAIL: mode '" << modes[m].name
                << "' disagrees with the legacy verdicts\n";
      return EXIT_FAILURE;
    }
  }

  std::size_t wp_failing = 0;
  std::size_t greedy_rescued = 0;  // WP fails, greedy LS marking succeeds
  std::size_t rounds_total = 0;
  for (const Verdict& v : modes[0].verdicts) {
    if (!v.wp) ++wp_failing;
    if (!v.wp && v.proposed) ++greedy_rescued;
    rounds_total += v.greedy_rounds;
  }

  const double speedup_1t = modes[0].wall_ms / modes[1].wall_ms;
  const double speedup_nt = modes[0].wall_ms / modes[2].wall_ms;

  std::cout << "Analysis pipeline bench: " << kSets << " task sets (n="
            << kTasks << ", U=" << kUtilization << ", gamma=" << kGamma
            << "), " << wp_failing << " WP-failing, " << greedy_rescued
            << " rescued by greedy, " << rounds_total
            << " greedy rounds total\n\n"
            << std::left << std::setw(26) << "mode" << std::setw(12)
            << "wall ms" << "speedup\n";
  for (const ModeResult& mode : modes) {
    const double speedup = modes[0].wall_ms / mode.wall_ms;
    std::cout << std::left << std::setw(26) << mode.name << std::setw(12)
              << std::fixed << std::setprecision(1) << mode.wall_ms
              << std::setprecision(2) << speedup << "x\n";
  }
  std::cout << "\nengine reuse (threads=1): " << std::setprecision(2)
            << speedup_1t << "x, with fan-out (threads=" << n_threads
            << "): " << speedup_nt << "x\n";

  // Sweep-wall axis: barrier vs global queue over the duration replay.
  const exp::SweepSpec replay = sweep_wall_spec();
  std::vector<exp::SweepRow> barrier_rows;
  std::vector<exp::SweepRow> queue_rows;
  const double barrier_ms =
      best_sweep_wall_ms(replay, /*barrier=*/true, kReps, &barrier_rows);
  const double queue_ms =
      best_sweep_wall_ms(replay, /*barrier=*/false, kReps, &queue_rows);
  if (!same_rows(barrier_rows, queue_rows)) {
    std::cerr << "FAIL: barrier and queue execution produced different "
                 "aggregates — sweep runner is not deterministic\n";
    return EXIT_FAILURE;
  }
  const double sweep_speedup = queue_ms > 0.0 ? barrier_ms / queue_ms : 0.0;
  std::cout << "\nsweep-wall axis (" << replay.values.size() << " points x "
            << replay.slots_per_point << " replayed units, threads=4):\n"
            << "  per-point barrier: " << std::setprecision(1) << barrier_ms
            << " ms\n  global queue:      " << queue_ms << " ms  ("
            << std::setprecision(2) << sweep_speedup << "x)\n";

  std::ofstream json("BENCH_analysis.json");
  json << "{\n  \"schema\": \"mcs-bench-analysis-v1\",\n"
       << "  \"sweep_point\": {\"sets\": " << kSets << ", \"num_tasks\": "
       << kTasks << ", \"utilization\": " << kUtilization
       << ", \"gamma\": " << kGamma << ", \"wp_failing\": " << wp_failing
       << ", \"greedy_rescued\": " << greedy_rescued
       << ", \"greedy_rounds_total\": " << rounds_total << "},\n"
       << "  \"modes\": [\n";
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeResult& mode = modes[m];
    json << "    {\"name\": \"" << mode.name << "\", \"engine\": "
         << (mode.engine ? "true" : "false")
         << ", \"threads\": " << mode.threads << ", \"wall_ms\": "
         << std::fixed << std::setprecision(1) << mode.wall_ms << "}"
         << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"sweep_wall\": {\"points\": " << replay.values.size()
       << ", \"slots_per_point\": " << replay.slots_per_point
       << ", \"threads\": 4, \"barrier_ms\": " << std::setprecision(1)
       << barrier_ms << ", \"queue_ms\": " << queue_ms << "},\n"
       << "  \"summary\": {\"speedup_single_thread\": "
       << std::setprecision(3) << speedup_1t
       << ", \"speedup_threads_n\": " << speedup_nt
       << ", \"threads_n\": " << n_threads
       << ", \"sweep_queue_speedup\": " << sweep_speedup << "}\n}\n";
  json.close();
  std::cout << "wrote BENCH_analysis.json\n";

  write_bench_telemetry("analysis");
  return 0;
}

}  // namespace mcs::bench
