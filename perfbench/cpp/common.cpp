#include "common.hpp"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "analysis/milp_formulation.hpp"
#include "analysis/window.hpp"
#include "lp/milp.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "sim/job_source.hpp"
#include "support/rng.hpp"

namespace perfbench {

using mcs::rt::kTimeMax;
using mcs::rt::Time;

std::vector<PassSummary> run_passes(double seconds,
                                    const std::function<PassSummary()>& pass) {
  std::vector<PassSummary> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(pass());
  } while (seconds_since(start) + passes.back().raw_wall_s <= seconds);
  return passes;
}

double median_setup_seconds(SpeedProbe& probe,
                            const std::function<void()>& setup) {
  for (int i = 0; i < 3; ++i) probe.sample();
  std::vector<std::pair<Clock::time_point, Clock::time_point>> runs;
  const Clock::time_point start = Clock::now();
  while (runs.size() < kMinSetups ||
         (seconds_since(start) < kMinSetupSeconds && runs.size() < kMaxSetups)) {
    probe.sample_if_due();
    const Clock::time_point t0 = Clock::now();
    setup();
    runs.emplace_back(t0, Clock::now());
  }
  for (int i = 0; i < 3; ++i) probe.sample();
  std::vector<double> samples;
  for (const auto& [from, to] : runs) {
    samples.push_back(probe.normalize(from, to));
  }
  return median(samples);
}

void Quality::add_bounds(const rt::TaskSet& tasks,
                         const std::vector<Time>& wcrt) {
  for (std::size_t i = 0; i < tasks.size() && i < wcrt.size(); ++i) {
    if (wcrt[i] == kTimeMax || wcrt[i] > tasks[i].deadline) continue;
    wcrt_ratio.numerator += static_cast<double>(wcrt[i]) /
                            static_cast<double>(tasks[i].deadline);
    wcrt_ratio.denominator += 1.0;
  }
}

MetricSet end_to_end_metrics(double setup_s,
                             const std::vector<PassSummary>& passes,
                             double peak_rss, const Ratio& ok_share,
                             const Quality& quality,
                             const std::string& unit_label) {
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p95s;
  std::size_t units = 0;
  for (const PassSummary& p : passes) {
    walls.push_back(p.wall_s);
    rates.push_back(p.verdicts / p.wall_s);
    p50s.push_back(percentile(p.unit_seconds, 0.50) * 1e3);
    p95s.push_back(percentile(p.unit_seconds, 0.95) * 1e3);
    units = p.unit_seconds.size();
  }
  std::string passes_note = "median of " + std::to_string(passes.size()) +
                            " pass(es); raw wall:";
  for (const PassSummary& p : passes) {
    passes_note += ' ';
    passes_note += std::to_string(p.raw_wall_s);
  }
  MetricSet m;
  m.add("setup_s", setup_s, "s",
        "median of in-process set-ups repeated for at least " +
            std::to_string(static_cast<int>(kMinSetupSeconds * 1e3)) +
            " ms");
  m.add("wall_s", median(walls), "s", passes_note);
  m.add("verdicts_per_s", median(rates), "1/s", passes_note);
  m.add("peak_rss_mb", peak_rss, "MiB", "high-water mark before checks");
  m.add("ok_share", ok_share.value(), "ratio",
        ok_share.describe() + " attempted minus failed over attempted");
  m.add("unit_p50_ms", median(p50s), "ms",
        unit_label + ", " + describe_percentile(units, 0.50));
  m.add("unit_p95_ms", median(p95s), "ms",
        unit_label + ", " + describe_percentile(units, 0.95));
  m.add("sched_ratio", quality.sched.value(), "ratio",
        quality.sched.describe());
  m.add("mean_wcrt_ratio", quality.wcrt_ratio.value(), "ratio",
        quality.wcrt_ratio.describe());
  return m;
}

RunResult timed_result(double setup_s, const std::vector<PassSummary>& passes,
                       double peak_rss, const CheckTally& checks,
                       const std::string& unit_label) {
  RunResult out;
  out.correct = checks.correct;
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  out.metrics = end_to_end_metrics(
      setup_s, passes, peak_rss,
      Ratio{static_cast<double>(checks.attempted - checks.failed),
            static_cast<double>(checks.attempted)},
      checks.quality, unit_label);
  return out;
}

LayerMetrics::LayerMetrics(std::vector<DeclaredMetric> declared)
    : declared_(std::move(declared)) {}

void LayerMetrics::set(const std::string& name, double value,
                       std::string note) {
  const auto it =
      std::find_if(declared_.begin(), declared_.end(),
                   [&name](const DeclaredMetric& d) { return d.name == name; });
  if (it == declared_.end()) {
    throw std::logic_error("per-layer metric " + name +
                           " is not declared in BENCHMARK.json");
  }
  values_[name] = Metric{name, value, it->unit, std::move(note)};
}

void LayerMetrics::set_ratio(const std::string& name, const Ratio& ratio) {
  set(name, ratio.value(), ratio.describe());
}

void LayerMetrics::add_telemetry(const TelemetryDelta& d) {
  set("analysis.fixpoint_rounds", d.counter("analysis.fixpoint_rounds"));
  set("analysis.tasks_analyzed", d.counter("analysis.tasks_analyzed"));
  set("analysis.mean_window_intervals",
      Ratio{d.histogram_sum("analysis.window_intervals"),
            d.histogram_count("analysis.window_intervals")}
          .value(),
      Ratio{d.histogram_sum("analysis.window_intervals"),
            d.histogram_count("analysis.window_intervals")}
          .describe() +
          " intervals / fixpoint rounds");
  const double builds = d.counter("analysis.milp_builds");
  const double hits = d.counter("analysis.milp_cache_hits");
  set("analysis.formulation_builds", builds);
  set_ratio("analysis.formulation_reuse_ratio", Ratio{hits, builds + hits});
  const double rta_s = d.timer_seconds("analysis.bound_response_time");
  const double milp_s = d.timer_seconds("milp.solve");
  set("analysis.self_s", rta_s - milp_s,
      "analysis.bound_response_time minus milp.solve timers");
  set("lp.presolve_s", d.timer_seconds("lp.presolve.run"));
  set("lp.milp_solves", d.counter("milp.solves"));
  set("lp.bb_nodes", d.counter("milp.nodes_explored"));
  set("lp.lp_iterations", d.counter("milp.lp_iterations"));
  const double pivots = d.counter("simplex.cold_pivots") +
                        d.counter("simplex.warm_pivots") +
                        d.counter("lp.simplex_iterations");
  set("lp.pivots", pivots);
  set("lp.refactorizations", d.counter("simplex.refactorizations"));
  set("lp.milp_solve_s", milp_s);
  const Ratio rate{pivots, milp_s};
  set("lp.pivots_per_s", rate.value(),
      "(= " + std::to_string(static_cast<long long>(pivots)) + " pivots / " +
          std::to_string(milp_s) + " s in milp.solve)");
  const double warm = d.counter("milp.warm_start_hits");
  set_ratio("lp.warm_start_hit_ratio",
            Ratio{warm, warm + d.counter("milp.warm_start_fallbacks")});
  set("lp.gap_terminations", d.counter("milp.gap_terminations"));
  set("lp.node_limit_hits", d.counter("milp.node_limit_hits"));
  const double cache_hits = d.counter("svc.cache.hits");
  set_ratio("svc.cache_hit_ratio",
            Ratio{cache_hits, cache_hits + d.counter("svc.cache.misses")});
  set("svc.cache_evictions", d.counter("svc.cache.evictions"));
  set("svc.degraded_verdicts", d.counter("svc.degraded_verdicts"));
}

MetricSet LayerMetrics::finish() const {
  MetricSet out;
  for (const DeclaredMetric& d : declared_) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      out.add(d.name, 0.0, d.unit, "idle on this workload");
    } else {
      out.add(d.name, it->second.value, d.unit, it->second.note);
    }
  }
  return out;
}

bool simulate_within_bounds(const rt::TaskSet& tasks, sim::Protocol protocol,
                            const std::vector<Time>& wcrt, std::uint64_t seed,
                            std::string* why) {
  Time horizon = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    horizon = std::max(horizon, 20 * tasks[i].period);
  }
  mcs::support::Rng rng(seed);
  for (int pattern = 0; pattern < 2; ++pattern) {
    auto releases =
        pattern == 0
            ? sim::synchronous_periodic_releases(tasks, horizon)
            : sim::random_sporadic_releases(tasks, horizon, 0.6, rng);
    const sim::Trace trace =
        sim::simulate(tasks, protocol, std::move(releases));
    std::ostringstream problem;
    if (trace.aborted) problem << "simulation aborted; ";
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Time observed = trace.worst_response(i);
      if (observed == kTimeMax || observed > wcrt[i]) {
        problem << "task " << tasks[i].name << " observed "
                << (observed == kTimeMax ? std::string("incomplete")
                                         : std::to_string(observed))
                << " > WCRT " << wcrt[i] << "; ";
      }
    }
    if (!trace.all_deadlines_met()) problem << "deadline miss; ";
    if (!problem.str().empty()) {
      if (why != nullptr) {
        *why = std::string(sim::to_string(protocol)) + " pattern " +
               std::to_string(pattern) + ": " + problem.str();
      }
      return false;
    }
  }
  return true;
}

ReplayTimes replay_final_windows(const std::vector<ReplayInput>& inputs) {
  namespace an = mcs::analysis;
  ReplayTimes times;
  for (const ReplayInput& in : inputs) {
    for (std::size_t i = 0; i < in.tasks.size(); ++i) {
      if (i >= in.wcrt.size() || in.wcrt[i] == kTimeMax) continue;
      const rt::Task& task = in.tasks[i];
      const Time t = in.wcrt[i] - task.exec - task.copy_out;
      if (t < 0) continue;
      const bool ls = task.latency_sensitive && !in.ignore_ls;

      Clock::time_point t0 = Clock::now();
      const std::size_t intervals =
          ls ? an::window_intervals_ls(in.tasks, i, t)
             : an::window_intervals_nls(in.tasks, i, t);
      times.window += seconds_since(t0);
      if (intervals == 0) continue;

      std::vector<std::pair<an::FormulationCase, Time>> cases;
      if (ls) {
        cases = {{an::FormulationCase::kLsCaseA, t},
                 {an::FormulationCase::kLsCaseB, 0}};
      } else {
        cases = {{an::FormulationCase::kNls, t}};
      }
      for (const auto& [fcase, window] : cases) {
        t0 = Clock::now();
        const an::DelayMilp milp = an::build_delay_milp(
            in.tasks, i, window, fcase, in.ignore_ls,
            /*patchable_ls=*/!in.ignore_ls);
        times.build += seconds_since(t0);

        t0 = Clock::now();
        const auto reduced = mcs::lp::presolve::presolve(milp.model);
        times.presolve += seconds_since(t0);
        (void)reduced;

        t0 = Clock::now();
        const auto root = mcs::lp::solve_lp(milp.model, in.options.milp.lp);
        times.root_lp += seconds_since(t0);
        (void)root;

        t0 = Clock::now();
        const auto bb = mcs::lp::solve_milp(milp.model, in.options.milp);
        times.bb += seconds_since(t0);
        (void)bb;
      }
    }
  }
  return times;
}

void add_replay_metrics(LayerMetrics& layers, const ReplayTimes& times) {
  layers.set("analysis.window_replay_s", times.window);
  layers.set("analysis.build_replay_s", times.build);
  layers.set("lp.presolve_replay_s", times.presolve);
  layers.set("lp.root_lp_replay_s", times.root_lp);
  layers.set("lp.bb_replay_s", times.bb);
}

double paired_ratio(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  std::vector<std::pair<double, double>> ratios;  // (ratio, weight)
  double total = 0.0;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    if (untraced[i] <= 0.0) continue;
    ratios.emplace_back(traced[i] / untraced[i], untraced[i]);
    total += untraced[i];
  }
  if (ratios.empty()) return 1.0;
  std::sort(ratios.begin(), ratios.end());
  double seen = 0.0;
  for (const auto& [ratio, weight] : ratios) {
    seen += weight;
    if (seen >= total / 2.0) return ratio;
  }
  return ratios.back().first;
}

void add_trace_overhead(LayerMetrics& layers, const PassSummary& traced,
                        const PassSummary& untraced) {
  const double ratio = paired_ratio(traced.unit_seconds, untraced.unit_seconds);
  layers.set("trace.overhead_s", (ratio - 1.0) * untraced.wall_s,
             "untraced wall " + std::to_string(untraced.wall_s) +
                 " s x (paired unit ratio " + std::to_string(ratio) +
                 " - 1); normalized walls " + std::to_string(traced.wall_s) +
                 " - " + std::to_string(untraced.wall_s) + " s, raw " +
                 std::to_string(traced.raw_wall_s) + " - " +
                 std::to_string(untraced.raw_wall_s) + " s");
}

rt::TaskSet with_flags(rt::TaskSet tasks, const std::vector<bool>& flags) {
  for (std::size_t i = 0; i < tasks.size() && i < flags.size(); ++i) {
    tasks[i].latency_sensitive = flags[i];
  }
  return tasks;
}

RunResult traced_result(const LayerMetrics& layers, const CheckTally& checks,
                        const Tracer& tracer,
                        const std::filesystem::path& workdir) {
  std::cout << "== self time per layer (traced pass, "
            << tracer.spans().size() << " spans)\n";
  for (const auto& [layer, seconds] : tracer.self_time_by_layer()) {
    std::cout << "  " << std::left << std::setw(12) << layer << std::right
              << std::setw(14) << std::setprecision(6) << seconds << " s\n";
  }
  tracer.write_jsonl(workdir / "spans.jsonl");
  RunResult out;
  out.correct = checks.correct;
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  out.metrics = layers.finish();
  return out;
}

}  // namespace perfbench
