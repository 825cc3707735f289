// fig2c-sweep: the paper's Figure 2(c) sweep through exp::run_sweep on the
// registry's fig2c spec — 9 U points x 30 task sets, n=4, gamma=0.4, 2% gap,
// 4000-node budget, one worker thread.  Thousands of small MILPs, so the
// per-solve costs (formulation build/patch, presolve, session set-up,
// fixpoint and greedy rounds) carry weight here.
//
// The sweep always runs at the registry's own seed: how long a sweep takes
// depends strongly on which task sets it draws (ten sweep seeds spread by
// about a quarter of their median), which would drown every change the
// benchmark is meant to see.  --seed instead picks the task sets that are
// re-analyzed, compared against the sweep's own unit records, and
// simulated for soundness.
#include <iostream>
#include <optional>
#include <set>

#include "analysis/engine.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/registry.hpp"
#include "gen/generator.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = mcs::analysis;
namespace exp = mcs::exp;
namespace telemetry = mcs::support::telemetry;
using mcs::support::Rng;

namespace {

/// Re-analyzed units per sweep point: the first kQualityPerPoint (their
/// bounds give mean_wcrt_ratio) plus kSamplePerPoint chosen by --seed.
constexpr std::size_t kQualityPerPoint = 5;
constexpr std::size_t kSamplePerPoint = 5;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return lines;
}

/// One unit analyzed by the benchmark itself, with the same engine calls
/// exp::experiment_sweep_spec makes, so spans can sit around each call.
struct MirrorUnit {
  rt::TaskSet tasks;
  an::ApproachResult nps;
  an::WpResult wp;
  std::optional<an::ProposedResult> proposed;  ///< only when WP failed
  std::vector<std::uint64_t> metrics;          ///< same layout as the sweep
};

mcs::gen::GeneratorConfig point_config(const exp::ExperimentConfig& config,
                                       double x) {
  mcs::gen::GeneratorConfig g = config.base;
  g.utilization = x;  // fig2c sweeps U
  return g;
}

MirrorUnit analyze_unit(const exp::ExperimentConfig& config, double x,
                        Rng& rng, std::uint64_t unit_id, Tracer* tracer) {
  MirrorUnit u;
  {
    SpanGuard span(tracer, "gen.generate_task_set", unit_id);
    u.tasks = mcs::gen::generate_task_set(point_config(config, x), rng);
  }
  an::AnalysisEngine engine;
  {
    SpanGuard span(tracer, "analysis.nps", unit_id);
    u.nps = engine.analyze(u.tasks, an::Approach::kNonPreemptive,
                           config.analysis);
  }
  {
    SpanGuard span(tracer, "analysis.wp", unit_id);
    u.wp = engine.analyze_wp(u.tasks, config.analysis);
  }
  bool proposed_ok = u.wp.schedulable;
  bool proposed_fb = u.wp.any_relaxation_fallback;
  if (!proposed_ok) {
    SpanGuard span(tracer, "analysis.proposed", unit_id);
    u.proposed = engine.analyze_proposed(u.tasks, config.analysis, &u.wp);
    proposed_ok = u.proposed->schedulable;
    proposed_fb = u.proposed->any_relaxation_fallback;
  }
  u.metrics = {proposed_ok ? 1u : 0u,
               u.wp.schedulable ? 1u : 0u,
               u.nps.schedulable ? 1u : 0u,
               (u.wp.any_relaxation_fallback || proposed_fb) ? 1u : 0u,
               u.wp.any_relaxation_fallback ? 1u : 0u,
               proposed_fb ? 1u : 0u};
  return u;
}

std::vector<rt::Time> wcrts(const std::vector<an::TaskBoundResult>& bounds) {
  std::vector<rt::Time> out;
  for (const auto& b : bounds) out.push_back(b.wcrt);
  return out;
}

/// Draws every task set of the sweep, as run_sweep's units do; returns the
/// number of tasks drawn.
std::size_t draw_task_sets(const exp::SweepSpec& spec,
                           const exp::ExperimentConfig& config) {
  std::size_t tasks = 0;
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    for (std::size_t s = 0; s < spec.slots_per_point; ++s) {
      Rng rng(mcs::support::derive_seed(spec.seed, p, s));
      tasks += mcs::gen::generate_task_set(point_config(config, spec.values[p]),
                                           rng)
                   .size();
    }
  }
  return tasks;
}

exp::SweepSpec fig2c_spec() {
  const exp::SweepEntry* entry = exp::find_sweep("fig2c");
  if (entry == nullptr) throw std::runtime_error("registry has no fig2c");
  return entry->make();
}

struct SweepPass {
  PassSummary summary;
  exp::SweepRunResult result;
};

/// One run_sweep on the registry's spec, running the spec's own evaluate.
/// Each unit's evaluation is timed between probe samples and normalized to
/// reference speed.  With a tracer (the traced pass) each evaluation sits
/// in an exp.unit span and each probe in a bench.probe span.
SweepPass timed_sweep(const exp::SweepSpec& spec, SpeedProbe& probe,
                      Tracer* tracer) {
  exp::RunnerOptions options;
  options.threads = 1;
  SweepPass pass;
  exp::SweepSpec run = spec;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> units(
      spec.values.size() * spec.slots_per_point);
  run.evaluate = [&spec, &units, &probe, tracer](const exp::SweepUnit& unit,
                                                 Rng& rng) {
    {
      SpanGuard span(tracer, "bench.probe", unit.index);
      probe.sample_if_due();
    }
    SpanGuard span(tracer, "exp.unit", unit.index);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::uint64_t> metrics = spec.evaluate(unit, rng);
    units[unit.index] = {t0, Clock::now()};
    return metrics;
  };
  const double probe_before = probe.probe_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    SpanGuard span(tracer, "exp.run_sweep", 0);
    pass.result = exp::run_sweep(run, options);
  }
  const Clock::time_point t1 = Clock::now();
  pass.summary.raw_wall_s = seconds_between(t0, t1);
  for (const exp::UnitOutcome& o : pass.result.outcomes) {
    if (o.ok) pass.summary.verdicts += 3;  // three approaches per set
  }
  const double probing = probe.probe_seconds() - probe_before;
  probe.sample();
  double raw_units = 0.0;
  for (const exp::UnitOutcome& o : pass.result.outcomes) {
    const auto& [from, to] = units[o.point * spec.slots_per_point + o.slot];
    raw_units += seconds_between(from, to);
    pass.summary.unit_seconds.push_back(probe.normalize(from, to));
    pass.summary.wall_s += pass.summary.unit_seconds.back();
  }
  // The runner's own time between units, at the pass's median speed.
  pass.summary.wall_s += (pass.summary.raw_wall_s - raw_units - probing) *
                         probe.speed_factor(t0, t1);
  return pass;
}

std::string sweep_csv(const exp::SweepSpec& spec,
                      const exp::SweepRunResult& result,
                      const std::filesystem::path& path) {
  exp::write_sweep_csv(spec, exp::aggregate_outcomes(spec, result.outcomes),
                       path);
  return read_file(path);
}

CheckTally check_outputs(const RunConfig& cfg, const exp::SweepSpec& spec,
                     const exp::SweepRunResult& result) {
  CheckTally c;
  const exp::ExperimentConfig config = exp::figure2_config('c');
  c.attempted += result.outcomes.size();
  for (const exp::UnitOutcome& o : result.outcomes) {
    if (!o.ok) {
      ++c.failed;
      std::cerr << "fig2c: unit " << o.point << "/" << o.slot
                << " failed: " << o.error << "\n";
    }
  }

  // 1. The CSV equals `mcs_bench fig2c --threads=1` at the same seed.
  const std::string ours = sweep_csv(spec, result, cfg.workdir / "fig2c.csv");
  const std::filesystem::path ref_dir = cfg.workdir / "mcs_bench";
  std::filesystem::create_directories(ref_dir);
  const int rc = run_process(
      {cfg.mcs_bench.string(), "fig2c", "--threads=1",
       "--out-dir=" + ref_dir.string()},
      {{"MCS_SEED", std::to_string(spec.seed)}, {"MCS_TELEMETRY", "0"}},
      ref_dir / "stdout.txt", ref_dir / "stderr.txt");
  const std::vector<std::string> our_rows = lines_of(ours);
  const std::vector<std::string> their_rows =
      rc == 0 ? lines_of(read_file(ref_dir / "fig2c.csv"))
              : std::vector<std::string>{};
  if (their_rows.size() != our_rows.size()) {
    c.correct = false;
    std::cerr << "fig2c: mcs_bench fig2c --threads=1 gave no comparable CSV "
                 "(exit "
              << rc << ")\n";
  } else {
    for (std::size_t r = 0; r < our_rows.size(); ++r) {
      if (our_rows[r] == their_rows[r]) continue;
      c.correct = false;
      std::cerr << "fig2c: CSV row " << r
                << " differs from mcs_bench fig2c --threads=1\n  in-process: "
                << our_rows[r] << "\n  mcs_bench:  " << their_rows[r] << "\n";
    }
  }

  // 2. Schedulable share over the sweep points (from the sweep's CSV rows).
  for (const exp::SweepRow& row :
       exp::aggregate_outcomes(spec, result.outcomes)) {
    if (row.ok_units == 0) continue;
    c.quality.sched.numerator += static_cast<double>(row.metric_sums[0]) /
                                 static_cast<double>(row.ok_units);
    c.quality.sched.denominator += 1.0;
  }

  // 3. Re-analyze the first kQualityPerPoint task sets of every point (the
  //    WCRT/D sample, the same for every seed) and kSamplePerPoint more
  //    chosen by --seed; each must equal its sweep record, and every
  //    schedulable verdict is simulated.
  Rng pick(cfg.seed);
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    std::set<std::size_t> slots;
    const std::size_t fixed = std::min(kQualityPerPoint, spec.slots_per_point);
    for (std::size_t s = 0; s < fixed; ++s) slots.insert(s);
    const std::size_t wanted =
        std::min(fixed + kSamplePerPoint, spec.slots_per_point);
    while (slots.size() < wanted) {
      slots.insert(static_cast<std::size_t>(pick.uniform_int(
          0, static_cast<std::int64_t>(spec.slots_per_point) - 1)));
    }
    for (const std::size_t s : slots) {
      const std::size_t index = p * spec.slots_per_point + s;
      Rng rng(mcs::support::derive_seed(spec.seed, p, s));
      const MirrorUnit u =
          analyze_unit(config, spec.values[p], rng, index, nullptr);
      if (result.outcomes[index].ok &&
          result.outcomes[index].metrics != u.metrics) {
        c.correct = false;
        std::cerr << "fig2c: re-analysis of unit " << p << "/" << s
                  << " disagrees with the sweep record\n";
      }
      struct Claim {
        bool schedulable;
        rt::TaskSet tasks;
        sim::Protocol protocol;
        std::vector<rt::Time> wcrt;
      };
      std::vector<Claim> claims = {
          {u.nps.schedulable, u.tasks, sim::Protocol::kNonPreemptive,
           u.nps.wcrt},
          {u.wp.schedulable, u.tasks, sim::Protocol::kWasilyPellizzoni,
           wcrts(u.wp.per_task)}};
      if (u.proposed) {
        claims.push_back({u.proposed->schedulable,
                          with_flags(u.tasks, u.proposed->ls_flags),
                          sim::Protocol::kProposed,
                          wcrts(u.proposed->per_task)});
      }
      for (const Claim& claim : claims) {
        if (s < fixed) c.quality.add_bounds(claim.tasks, claim.wcrt);
        if (!claim.schedulable) continue;
        ++c.attempted;
        std::string why;
        if (!simulate_within_bounds(claim.tasks, claim.protocol, claim.wcrt,
                                    cfg.seed ^ index, &why)) {
          ++c.failed;
          std::cerr << "fig2c: unit " << p << "/" << s << " unsound: " << why
                    << "\n";
        }
      }
    }
  }
  return c;
}

}  // namespace

RunResult run_fig2c_sweep(const RunConfig& cfg) {
  const exp::ExperimentConfig config = exp::figure2_config('c');
  exp::SweepSpec spec;
  const auto setup = [&spec, &config] {
    spec = fig2c_spec();
    if (draw_task_sets(spec, config) == 0) {
      throw std::runtime_error("fig2c: empty inputs");
    }
  };
  SpeedProbe probe;
  const double setup_s = median_setup_seconds(probe, setup);

  telemetry::set_enabled(false);
  if (!cfg.trace) {
    exp::SweepRunResult last;
    const std::vector<PassSummary> passes =
        run_passes(cfg.seconds, [&spec, &last, &probe] {
          SweepPass pass = timed_sweep(spec, probe, nullptr);
          last = std::move(pass.result);
          return pass.summary;
        });
    const double rss = peak_rss_mb();
    const CheckTally c = check_outputs(cfg, spec, last);
    return timed_result(setup_s, passes, rss, c,
                        "task set analyzed three ways");
  }

  // Traced run: an untraced pass, then the same sweep with telemetry on
  // and an exp.unit span around each call of the spec's evaluate — the
  // per-layer counts are the program's own.  Then a mirror replay with
  // spans around each engine call (analysis.*_s, greedy rounds), the final
  // window replays and the same output checks.
  const SweepPass untraced = timed_sweep(spec, probe, nullptr);
  Tracer tracer;  // one worker thread: a single writer at a time
  telemetry::set_enabled(true);
  const auto before = telemetry::snapshot();
  const SweepPass traced = timed_sweep(spec, probe, &tracer);
  const TelemetryDelta delta(before, telemetry::snapshot());
  telemetry::set_enabled(false);

  CheckTally c = check_outputs(cfg, spec, untraced.result);
  if (sweep_csv(spec, traced.result, cfg.workdir / "fig2c.traced.csv") !=
      sweep_csv(spec, untraced.result, cfg.workdir / "fig2c.untraced.csv")) {
    c.correct = false;
    std::cerr << "fig2c: the traced sweep's CSV differs from the untraced "
                 "sweep's\n";
  }

  LayerMetrics layers(cfg.declared.per_layer);
  layers.add_telemetry(delta);
  double unit_sum = 0.0;
  for (const exp::UnitOutcome& o : traced.result.outcomes) {
    unit_sum += o.seconds;
  }
  layers.set("exp.units", static_cast<double>(traced.result.outcomes.size()));
  layers.set("exp.overhead_s", traced.summary.raw_wall_s - unit_sum,
             "run_sweep wall minus the sum of UnitOutcome::seconds, raw");

  // The mirror makes the sweep's engine calls itself, so spans can sit
  // around each; its verdicts must equal the traced sweep's unit records.
  Tracer mirror;
  std::vector<ReplayInput> replays;
  double greedy_rounds = 0.0;
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    for (std::size_t s = 0; s < spec.slots_per_point; ++s) {
      const std::size_t index = p * spec.slots_per_point + s;
      Rng rng(mcs::support::derive_seed(spec.seed, p, s));
      const MirrorUnit u =
          analyze_unit(config, spec.values[p], rng, index, &mirror);
      if (traced.result.outcomes[index].ok &&
          traced.result.outcomes[index].metrics != u.metrics) {
        c.correct = false;
        std::cerr << "fig2c: mirror of unit " << p << "/" << s
                  << " disagrees with the traced sweep's record\n";
      }
      replays.push_back(
          {u.tasks, true, wcrts(u.wp.per_task), config.analysis});
      if (u.proposed) {
        greedy_rounds += static_cast<double>(u.proposed->rounds);
        replays.push_back({with_flags(u.tasks, u.proposed->ls_flags), false,
                           wcrts(u.proposed->per_task), config.analysis});
      }
    }
  }
  const std::string mirror_note =
      "mirror replay of the sweep's evaluate, telemetry off";
  layers.set("analysis.nps_s", mirror.total("analysis.nps"), mirror_note);
  layers.set("analysis.wp_s", mirror.total("analysis.wp"), mirror_note);
  layers.set("analysis.proposed_s", mirror.total("analysis.proposed"),
             mirror_note);
  layers.set("analysis.greedy_rounds", greedy_rounds,
             "sum of ProposedResult::rounds, " + mirror_note);

  const Clock::time_point g0 = Clock::now();
  (void)draw_task_sets(spec, config);
  layers.set("gen.generate_replay_s", seconds_since(g0));
  add_replay_metrics(layers, replay_final_windows(replays));
  add_trace_overhead(layers, traced.summary, untraced.summary);
  return traced_result(layers, c, tracer, cfg.workdir);
}

}  // namespace perfbench
