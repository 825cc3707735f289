// cli-analyze: what `mcs_cli analyze <file> --approach=all` does, for every
// committed workload file (workloads/*.wl and workloads/verify/*.wl) plus
// a few seed-generated n=6 systems written as .wl files:
// rt::load_workload_file, then one AnalysisEngine per system running
// analyze() for proposed, wp2016 and nps.  A few *large* MILPs — ecu.wl
// under the proposed analysis dominates — so inner simplex and branch and
// bound speed decide the wall time, while per-solve overhead, gen, exp
// and svc do almost nothing.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "rt/io.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = mcs::analysis;
namespace telemetry = mcs::support::telemetry;

namespace {

constexpr std::size_t kGeneratedSystems = 4;

/// Small systems are re-analyzed until this much time has accumulated, so
/// that their latency is a median rather than one short sample.
constexpr double kMinFileSeconds = 0.25;
constexpr std::size_t kMaxRepeats = 25;

const an::Approach kApproaches[] = {an::Approach::kProposed,
                                    an::Approach::kWasilyPellizzoni,
                                    an::Approach::kNonPreemptive};

sim::Protocol protocol_of(an::Approach approach) {
  switch (approach) {
    case an::Approach::kProposed:
      return sim::Protocol::kProposed;
    case an::Approach::kWasilyPellizzoni:
      return sim::Protocol::kWasilyPellizzoni;
    case an::Approach::kNonPreemptive:
      break;
  }
  return sim::Protocol::kNonPreemptive;
}

/// Committed workload files, then the generated ones, in a fixed order.
std::vector<std::filesystem::path> input_files(const RunConfig& cfg) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"workloads", "workloads/verify"}) {
    std::vector<std::filesystem::path> in_dir;
    for (const auto& entry :
         std::filesystem::directory_iterator(cfg.root / dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".wl") {
        in_dir.push_back(entry.path());
      }
    }
    std::sort(in_dir.begin(), in_dir.end());
    files.insert(files.end(), in_dir.begin(), in_dir.end());
  }
  if (files.empty()) throw std::runtime_error("no workloads/*.wl files");

  const std::filesystem::path gen_dir = cfg.workdir / "generated";
  std::filesystem::create_directories(gen_dir);
  mcs::support::Rng rng(cfg.seed);
  mcs::gen::GeneratorConfig g;
  g.num_tasks = 6;
  g.utilization = 0.2;
  g.gamma = 0.1;
  for (std::size_t k = 0; k < kGeneratedSystems; ++k) {
    rt::Workload workload;
    workload.tasks = mcs::gen::generate_task_set(g, rng);
    const auto path = gen_dir / ("seed" + std::to_string(cfg.seed) + "_" +
                                 std::to_string(k) + ".wl");
    std::ofstream out(path);
    rt::save_workload(workload, out);
    files.push_back(path);
  }
  return files;
}

std::string show_time(rt::Time t) {
  return t == rt::kTimeMax ? std::string("-") : std::to_string(t);
}

/// The verdict tables exactly as `mcs_cli analyze --approach=all` prints
/// them.
std::string render(const rt::TaskSet& tasks,
                   const std::vector<an::ApproachResult>& results) {
  std::ostringstream out;
  for (std::size_t a = 0; a < results.size(); ++a) {
    const an::ApproachResult& result = results[a];
    out << "== " << to_string(kApproaches[a]) << ": "
        << (result.schedulable ? "SCHEDULABLE" : "not schedulable") << "\n";
    out << std::left << std::setw(14) << "  task" << std::setw(10) << "D"
        << std::setw(12) << "WCRT" << "LS\n";
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      out << "  " << std::left << std::setw(12) << tasks[i].name
          << std::setw(10) << tasks[i].deadline << std::setw(12)
          << show_time(result.wcrt[i]) << (result.ls_flags[i] ? "yes" : "")
          << "\n";
    }
  }
  return out.str();
}

struct System {
  std::filesystem::path path;
  rt::TaskSet tasks;
  std::vector<an::ApproachResult> results;
};

struct AnalyzePass {
  PassSummary summary;
  std::vector<System> systems;
};

/// Analyzes every system like `mcs_cli analyze --approach=all`: a fresh
/// engine per system, then proposed, wp2016 and nps.  A background probe
/// samples the machine throughout (one analysis of ecu.wl runs for
/// seconds; probes at its two ends alone track its speed worse than no
/// probe at all) and every time is normalized to reference speed.  With
/// `repeat` (the timed passes) a system whose analysis takes less than
/// kMinFileSeconds is analyzed again (fresh engine each time, up to
/// kMaxRepeats) and its latency is the median repetition; the pass wall
/// time is the sum of the per-system latencies — one pass over all files.
/// Without it (the traced run) every system is analyzed once, so the
/// telemetry counts do not depend on machine speed.
AnalyzePass analyze_all(const std::vector<System>& loaded, SpeedProbe& probe,
                        Tracer* tracer, bool repeat) {
  AnalyzePass pass;
  pass.systems = loaded;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      reps(pass.systems.size());
  std::optional<SpeedProbe::Background> background(std::in_place, probe);
  for (std::size_t k = 0; k < pass.systems.size(); ++k) {
    System& s = pass.systems[k];
    double spent = 0.0;
    do {
      const Clock::time_point u0 = Clock::now();
      SpanGuard unit(tracer, "cli.analyze_file", k);
      an::EngineConfig engine_config;
      engine_config.threads = 1;
      an::AnalysisEngine engine(engine_config);
      std::vector<an::ApproachResult> results;
      for (const an::Approach approach : kApproaches) {
        const char* span =
            approach == an::Approach::kProposed           ? "analysis.proposed"
            : approach == an::Approach::kWasilyPellizzoni ? "analysis.wp"
                                                          : "analysis.nps";
        SpanGuard call(tracer, span, k);
        results.push_back(engine.analyze(s.tasks, approach, {}));
      }
      reps[k].emplace_back(u0, Clock::now());
      spent += seconds_between(u0, reps[k].back().second);
      if (s.results.empty()) s.results = std::move(results);
    } while (repeat && spent < kMinFileSeconds &&
             reps[k].size() < kMaxRepeats);
    pass.summary.verdicts += 3;
  }
  background.reset();
  probe.sample();
  for (const auto& r : reps) {
    std::vector<double> raw;
    std::vector<double> normalized;
    for (const auto& [from, to] : r) {
      raw.push_back(seconds_between(from, to));
      normalized.push_back(probe.normalize(from, to));
    }
    pass.summary.unit_seconds.push_back(median(normalized));
    pass.summary.wall_s += pass.summary.unit_seconds.back();
    pass.summary.raw_wall_s += median(raw);
  }
  return pass;
}

std::vector<System> load_all(const std::vector<std::filesystem::path>& files,
                             Tracer* tracer) {
  std::vector<System> systems;
  for (std::size_t k = 0; k < files.size(); ++k) {
    SpanGuard span(tracer, "rt.load_workload_file", k);
    systems.push_back(
        {files[k], rt::load_workload_file(files[k].string()).tasks, {}});
  }
  return systems;
}

CheckTally check_outputs(const RunConfig& cfg,
                         const std::vector<System>& systems) {
  CheckTally c;
  const std::filesystem::path ref_dir = cfg.workdir / "mcs_cli";
  std::filesystem::create_directories(ref_dir);
  for (std::size_t k = 0; k < systems.size(); ++k) {
    const System& s = systems[k];
    // Quality (sched_ratio, mean_wcrt_ratio) counts the committed files
    // only; the generated ones come last.  A seed-drawn system whose
    // verdict differs between seeds would move the ratios as much as a
    // real regression on one committed file.
    const bool committed = k + kGeneratedSystems < systems.size();
    c.attempted += 3;
    // 1. Verdict tables equal `mcs_cli analyze --approach=all` stdout.
    const auto out_path = ref_dir / (std::to_string(k) + ".out");
    const int rc = run_process(
        {cfg.mcs_cli.string(), "analyze", s.path.string(), "--approach=all"},
        {{"MCS_TELEMETRY", "0"}}, out_path,
        ref_dir / (std::to_string(k) + ".err"));
    if (rc != 0 && rc != 1) {
      c.correct = false;
      std::cerr << "cli-analyze: mcs_cli analyze " << s.path.string()
                << " exited " << rc << "\n";
    } else if (read_file(out_path) != render(s.tasks, s.results)) {
      c.correct = false;
      std::cerr << "cli-analyze: " << s.path.filename().string()
                << ": verdict tables differ from mcs_cli analyze\n";
    }
    // 2. Every schedulable verdict survives simulation.
    for (std::size_t a = 0; a < s.results.size(); ++a) {
      const an::ApproachResult& r = s.results[a];
      if (committed) c.quality.add_bounds(s.tasks, r.wcrt);
      if (!r.schedulable) continue;
      ++c.attempted;
      std::string why;
      if (!simulate_within_bounds(with_flags(s.tasks, r.ls_flags),
                                  protocol_of(kApproaches[a]), r.wcrt,
                                  cfg.seed + k, &why)) {
        ++c.failed;
        std::cerr << "cli-analyze: " << s.path.filename().string()
                  << " unsound: " << why << "\n";
      }
    }
    if (committed) {
      c.quality.sched.numerator += s.results[0].schedulable ? 1.0 : 0.0;
      c.quality.sched.denominator += 1.0;
    }
  }
  return c;
}

}  // namespace

RunResult run_cli_analyze(const RunConfig& cfg) {
  const std::vector<std::filesystem::path> files = input_files(cfg);
  std::vector<System> loaded;
  SpeedProbe probe;
  const double setup_s = median_setup_seconds(probe, [&files, &loaded] {
    loaded = load_all(files, nullptr);
    for (std::size_t k = 0; k < loaded.size(); ++k) {
      an::EngineConfig engine_config;
      engine_config.threads = 1;
      const an::AnalysisEngine engine(engine_config);
    }
  });

  telemetry::set_enabled(false);
  if (!cfg.trace) {
    std::vector<System> last;
    const std::vector<PassSummary> passes =
        run_passes(cfg.seconds, [&loaded, &last, &probe] {
          AnalyzePass pass = analyze_all(loaded, probe, nullptr, true);
          last = std::move(pass.systems);
          return pass.summary;
        });
    const double rss = peak_rss_mb();
    const CheckTally c = check_outputs(cfg, last);
    return timed_result(setup_s, passes, rss, c,
                        "workload file analyzed three ways");
  }

  const AnalyzePass untraced = analyze_all(loaded, probe, nullptr, false);
  Tracer tracer;
  LayerMetrics layers(cfg.declared.per_layer);
  telemetry::set_enabled(true);
  const auto before = telemetry::snapshot();
  const std::vector<System> traced_loaded = load_all(files, &tracer);
  const AnalyzePass traced = analyze_all(traced_loaded, probe, &tracer, false);
  const TelemetryDelta delta(before, telemetry::snapshot());
  telemetry::set_enabled(false);

  layers.add_telemetry(delta);
  layers.set("rt.load_s", tracer.total("rt.load_workload_file"));
  layers.set("analysis.proposed_s", tracer.total("analysis.proposed"));
  layers.set("analysis.wp_s", tracer.total("analysis.wp"));
  layers.set("analysis.nps_s", tracer.total("analysis.nps"));

  // analyze() does not report greedy rounds; a fresh engine's
  // analyze_proposed on the same system does (same verdict, same rounds).
  double greedy_rounds = 0.0;
  std::vector<ReplayInput> replays;
  for (const System& s : traced.systems) {
    an::AnalysisEngine engine;
    greedy_rounds +=
        static_cast<double>(engine.analyze_proposed(s.tasks).rounds);
    replays.push_back({with_flags(s.tasks, s.results[0].ls_flags), false,
                       s.results[0].wcrt, {}});
    replays.push_back({s.tasks, true, s.results[1].wcrt, {}});
  }
  layers.set("analysis.greedy_rounds", greedy_rounds,
             "sum of ProposedResult::rounds, fresh-engine replay");
  add_replay_metrics(layers, replay_final_windows(replays));
  add_trace_overhead(layers, traced.summary, untraced.summary);

  const CheckTally c = check_outputs(cfg, untraced.systems);
  return traced_result(layers, c, tracer, cfg.workdir);
}

}  // namespace perfbench
