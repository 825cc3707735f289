// admit-session: a seeded request script played against one
// svc::AdmissionService (one worker thread, default cache) through
// handle_line, closed loop with one caller — the next request is sent only
// after the previous verdict.  Many small cores, each walked through the
// same five request types:
//
//   admit of tasks one by one   cold greedy analyses; writes that drop the
//                               core's engine session
//   what-if analyze, unchanged  reads the LRU serves (hits)
//   remove, then re-admit       a hit on an earlier fingerprint right after
//                               a write
//   mark_ls                     marked mode on a live session (cold)
//   analyze with budget_ms:0    the deterministic degraded root-LP path
//
// Latency classes come from the response: cached:true is a hit,
// degraded:true is degraded, any other verdict is cold.  No timed budgets
// are used, so every verdict is independent of machine speed.
#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "support/rng.hpp"
#include "svc/fingerprint.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = mcs::analysis;
namespace svc = mcs::svc;
namespace telemetry = mcs::support::telemetry;

namespace {

constexpr std::size_t kCores = 400;
constexpr std::size_t kTasksPerCore = 4;
constexpr std::size_t kLeadingHits = 3;
constexpr std::size_t kTrailingHits = 2;
constexpr std::size_t kDegradedPerCore = 2;

/// Responses that may show the program's known heap-dependent flip (see
/// is_known_flip) before the run counts as incorrect: 0.5% of the requests,
/// 36 of the script's 7,200.  Runs show up to four.
constexpr double kMaxKnownFlipShare = 0.005;

struct Script {
  std::vector<std::string> lines;
  /// Every task the script mentions, by name (names are unique).
  std::map<std::string, rt::Task> tasks;
};

std::string task_json(const rt::Task& t) {
  std::ostringstream out;
  out << "{\"name\":\"" << t.name << "\",\"exec\":" << t.exec
      << ",\"copy_in\":" << t.copy_in << ",\"copy_out\":" << t.copy_out
      << ",\"period\":" << t.period << ",\"deadline\":" << t.deadline
      << ",\"prio\":" << t.priority << "}";
  return out.str();
}

/// "c<core><kind><index>", e.g. c12t3 (member) or c12w0 (what-if).
std::string task_name(std::size_t core, char kind, std::size_t index) {
  std::string name = "c";
  name += std::to_string(core);
  name += kind;
  name += std::to_string(index);
  return name;
}

Script make_script(std::uint64_t seed) {
  Script script;
  mcs::support::Rng rng(seed);
  std::uint64_t id = 0;
  const auto emit = [&script, &id](const std::string& core,
                                   const std::string& body) {
    script.lines.push_back("{\"id\":" + std::to_string(id++) +
                           ",\"core\":\"" + core + "\"," + body + "}");
  };
  for (std::size_t c = 0; c < kCores; ++c) {
    const std::string core = "core" + std::to_string(c);
    mcs::gen::GeneratorConfig g;
    g.num_tasks = kTasksPerCore;
    g.utilization = rng.uniform(0.1, 0.3);
    g.gamma = 0.2;
    const rt::TaskSet set = mcs::gen::generate_task_set(g, rng);
    std::vector<rt::Task> members;
    for (std::size_t i = 0; i < set.size(); ++i) {
      rt::Task t = set[i];
      t.name = task_name(c, 't', i);
      members.push_back(t);
      script.tasks[t.name] = t;
    }
    // What-if candidates for the degraded queries: low priority, so they
    // never collide with a member's.
    g.num_tasks = 1;
    g.utilization = 0.05;
    std::vector<rt::Task> candidates;
    for (std::size_t k = 0; k < kDegradedPerCore; ++k) {
      rt::Task t = mcs::gen::generate_task_set(g, rng)[0];
      t.name = task_name(c, 'w', k);
      t.priority = static_cast<rt::Priority>(100 + k);
      candidates.push_back(t);
      script.tasks[t.name] = t;
    }

    for (const rt::Task& t : members) {
      emit(core, "\"op\":\"admit\",\"task\":" + task_json(t));
    }
    for (std::size_t k = 0; k < kLeadingHits; ++k) {
      emit(core, "\"op\":\"analyze\"");
    }
    for (std::size_t k = 0; k < 3; ++k) {
      emit(core, "\"op\":\"analyze\",\"mode\":\"wp\"");
    }
    const rt::Task& last = members.back();
    emit(core, "\"op\":\"remove\",\"name\":\"" + last.name + "\"");
    emit(core, "\"op\":\"admit\",\"task\":" + task_json(last));
    emit(core, "\"op\":\"mark_ls\",\"name\":\"" + members.front().name +
                   "\",\"ls\":true");
    emit(core, "\"op\":\"mark_ls\",\"name\":\"" + members.front().name +
                   "\",\"ls\":false");
    for (const rt::Task& t : candidates) {
      emit(core, "\"op\":\"analyze\",\"budget_ms\":0,\"task\":" + task_json(t));
    }
    for (std::size_t k = 0; k < kTrailingHits; ++k) {
      emit(core, "\"op\":\"analyze\"");
    }
  }
  return script;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.threads = 1;
  return config;
}

struct SessionPass {
  PassSummary summary;
  std::vector<std::string> responses;
  std::vector<double> latency;
};

/// Plays the script against a fresh service.  Probe samples sit between
/// requests (in bench.probe spans when traced) and every latency is
/// normalized to reference speed.
SessionPass play_here(const Script& script, SpeedProbe& probe,
                      Tracer* tracer) {
  SessionPass pass;
  pass.responses.reserve(script.lines.size());
  std::vector<std::pair<Clock::time_point, Clock::time_point>> requests;
  requests.reserve(script.lines.size());
  svc::AdmissionService service(service_config());
  const double probe_before = probe.probe_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < script.lines.size(); ++k) {
    {
      SpanGuard span(tracer, "bench.probe", k);
      probe.sample_if_due();
    }
    SpanGuard span(tracer, "svc.handle_line", k);
    const Clock::time_point r0 = Clock::now();
    pass.responses.push_back(service.handle_line(script.lines[k]));
    requests.emplace_back(r0, Clock::now());
  }
  const Clock::time_point t1 = Clock::now();
  pass.summary.raw_wall_s = seconds_between(t0, t1);
  const double probing = probe.probe_seconds() - probe_before;
  probe.sample();
  double raw_requests = 0.0;
  for (const auto& [from, to] : requests) {
    raw_requests += seconds_between(from, to);
    pass.latency.push_back(probe.normalize(from, to));
    pass.summary.wall_s += pass.latency.back();
  }
  // The benchmark loop's own time between requests, at the pass's speed.
  pass.summary.wall_s += (pass.summary.raw_wall_s - raw_requests - probing) *
                         probe.speed_factor(t0, t1);
  return pass;
}

/// play_here on a thread of its own, the only one running.  The first such
/// thread gets a malloc arena no earlier code has touched, so the first
/// pass's responses do not depend on what the process allocated before it
/// (paths, BENCHMARK.json), only on the seed (see run_admit_session).
SessionPass play(const Script& script, SpeedProbe& probe, Tracer* tracer) {
  SessionPass pass;
  std::thread([&] { pass = play_here(script, probe, tracer); }).join();
  return pass;
}

/// One response, decoded outside any timed region.
struct Decoded {
  bool ok = false;
  std::string op;
  std::string mode;
  std::string error_code;
  LatencyClass latency_class = LatencyClass::kNone;
  bool schedulable = false;
  bool committed = false;
  std::string fingerprint;
  std::vector<std::string> names;
  std::vector<rt::Time> wcrt;
  std::vector<bool> ls;
};

Decoded decode(const std::string& request, const std::string& response) {
  Decoded d;
  const svc::Json req = svc::parse_json(request);
  d.op = req.find("op")->as_string();
  const svc::Json res = svc::parse_json(response);
  d.ok = res.find("ok")->as_bool();
  if (!d.ok) {
    d.error_code = res.find("error")->find("code")->as_string();
    return d;
  }
  d.latency_class = classify_response(response);
  if (const svc::Json* m = res.find("mode")) d.mode = m->as_string();
  if (const svc::Json* c = res.find("committed")) d.committed = c->as_bool();
  const svc::Json* v = res.find("verdict");
  if (v == nullptr) return d;
  d.schedulable = v->find("schedulable")->as_bool();
  d.fingerprint = v->find("fingerprint")->as_string();
  for (const svc::Json& t : v->find("tasks")->as_array()) {
    d.names.push_back(t.find("name")->as_string());
    const svc::Json* w = t.find("wcrt");
    d.wcrt.push_back(w->is_null() ? rt::kTimeMax : w->as_int64());
    d.ls.push_back(t.find("ls")->as_bool());
  }
  return d;
}

rt::TaskSet verdict_tasks(const Script& script, const Decoded& d) {
  std::vector<rt::Task> tasks;
  for (std::size_t i = 0; i < d.names.size(); ++i) {
    rt::Task t = script.tasks.at(d.names[i]);
    t.latency_sensitive = d.ls[i];
    tasks.push_back(t);
  }
  return rt::TaskSet(tasks);
}

struct Checks : CheckTally {
  std::vector<Decoded> decoded;
};

Checks check_outputs(const RunConfig& cfg, const Script& script,
                     const SessionPass& pass) {
  Checks c;
  std::vector<bool> bad(script.lines.size(), false);
  // 1. Decode; an ok:false is expected only for a remove or mark_ls of a
  //    task whose admit was refused earlier.
  std::map<std::string, std::set<std::string>> members;
  for (std::size_t k = 0; k < script.lines.size(); ++k) {
    c.decoded.push_back(decode(script.lines[k], pass.responses[k]));
  }
  for (std::size_t k = 0; k < script.lines.size(); ++k) {
    const Decoded& d = c.decoded[k];
    const svc::Json req = svc::parse_json(script.lines[k]);
    const std::string core = req.find("core")->as_string();
    if (!d.ok) {
      const std::string name = req.find("name") != nullptr
                                   ? req.find("name")->as_string()
                                   : std::string();
      const bool expected = d.error_code == "unknown_task" &&
                            members[core].count(name) == 0;
      if (!expected) {
        bad[k] = true;
        std::cerr << "admit-session: unexpected error on request " << k
                  << ": " << pass.responses[k] << "\n";
      }
      continue;
    }
    if (d.op == "admit" && d.committed) {
      members[core].insert(req.find("task")->find("name")->as_string());
    }
    if (d.op == "remove") members[core].erase(req.find("name")->as_string());
    if (d.op == "admit") {
      c.quality.sched.numerator += d.committed ? 1.0 : 0.0;
      c.quality.sched.denominator += 1.0;
    }
    if (d.latency_class == LatencyClass::kCold) {
      c.quality.add_bounds(verdict_tasks(script, d), d.wcrt);
    }
  }

  // 2. The transcript, `cached` stripped, equals `mcs_cli admit --script`
  //    line by line.  Every differing response is a failed request; one
  //    that is not the known flip, or more known flips than the cap, make
  //    the run incorrect.
  const auto script_path = cfg.workdir / "admit.script";
  std::string text;
  for (const std::string& line : script.lines) text += line + "\n";
  write_file(script_path, text);
  const auto ref_path = cfg.workdir / "mcs_cli_admit.out";
  // Run in the work directory with a relative script path: the program's
  // heap-dependent flip makes mcs_cli's answers depend on the length of
  // its arguments, which would otherwise carry the checkout's path.
  const int rc = run_process(
      {cfg.mcs_cli.string(), "admit",
       "--script=" + script_path.filename().string()},
      {{"MCS_TELEMETRY", "0"}}, ref_path, cfg.workdir / "mcs_cli_admit.err",
      cfg.workdir);
  std::vector<std::string> reference;
  if (rc == 0 || rc == 1) {
    std::istringstream in(read_file(ref_path));
    for (std::string line; std::getline(in, line);) reference.push_back(line);
  }
  std::string ours;
  for (const std::string& line : pass.responses) ours += line + "\n";
  write_file(cfg.workdir / "admit.responses", ours);
  if (reference.size() != pass.responses.size()) {
    c.correct = false;
    std::cerr << "admit-session: mcs_cli admit --script gave "
              << reference.size() << " responses for " << pass.responses.size()
              << " requests (exit " << rc << ")\n";
  } else {
    std::size_t differ = 0;
    std::size_t flips = 0;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      if (strip_cached(reference[k]) == strip_cached(pass.responses[k])) {
        continue;
      }
      bad[k] = true;
      ++differ;
      const bool flip = is_known_flip(pass.responses[k], reference[k]);
      if (flip) {
        ++flips;
      } else {
        c.correct = false;
      }
      std::cerr << "admit-session: response " << k
                << " differs from mcs_cli admit --script"
                << (flip ? " (the known heap-dependent flip)" : "")
                << "\n  in-process: " << pass.responses[k]
                << "\n  mcs_cli:    " << reference[k] << "\n";
    }
    const auto cap = static_cast<std::size_t>(
        kMaxKnownFlipShare * static_cast<double>(reference.size()));
    if (flips > cap) c.correct = false;
    std::cerr << "admit-session: " << differ << " of " << reference.size()
              << " responses differ from mcs_cli admit --script; " << flips
              << " are the known flip (at most " << cap << " allowed)\n";
  }
  c.attempted += script.lines.size();
  c.failed +=
      static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));

  // 3. Every distinct schedulable verdict survives simulation.
  std::set<std::string> simulated;
  for (const Decoded& d : c.decoded) {
    if (!d.ok || !d.schedulable || d.names.empty()) continue;
    std::ostringstream key;
    key << d.mode << d.fingerprint;
    for (const rt::Time w : d.wcrt) key << "," << w;
    if (!simulated.insert(key.str()).second) continue;
    ++c.attempted;
    const sim::Protocol protocol = d.mode == "wp"
                                       ? sim::Protocol::kWasilyPellizzoni
                                       : sim::Protocol::kProposed;
    std::string why;
    if (!simulate_within_bounds(verdict_tasks(script, d), protocol, d.wcrt,
                                cfg.seed + simulated.size(), &why)) {
      ++c.failed;
      std::cerr << "admit-session: verdict " << d.fingerprint
                << " unsound: " << why << "\n";
    }
  }
  return c;
}

/// The six class latencies of one pass.
void add_class_latencies(LayerMetrics& layers, const SessionPass& pass,
                         const std::vector<Decoded>& decoded) {
  std::map<LatencyClass, std::vector<double>> by_class;
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    by_class[decoded[k].latency_class].push_back(pass.latency[k] * 1e3);
  }
  const auto put = [&](const char* name, LatencyClass cls, double q) {
    const std::vector<double>& xs = by_class[cls];
    layers.set(name, percentile(xs, q), describe_percentile(xs.size(), q));
  };
  put("admit_cold_p50_ms", LatencyClass::kCold, 0.50);
  put("admit_cold_p95_ms", LatencyClass::kCold, 0.95);
  put("admit_hit_p50_ms", LatencyClass::kHit, 0.50);
  put("admit_hit_p99_ms", LatencyClass::kHit, 0.99);
  put("admit_degraded_p50_ms", LatencyClass::kDegraded, 0.50);
  put("admit_degraded_p95_ms", LatencyClass::kDegraded, 0.95);
}

/// Cold latencies are the unit; verdict responses are the verdicts.
PassSummary summarize(SessionPass& pass, const std::vector<Decoded>& decoded) {
  PassSummary s = pass.summary;
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    if (decoded[k].latency_class == LatencyClass::kNone) continue;
    s.verdicts += 1;
    if (decoded[k].latency_class == LatencyClass::kCold) {
      s.unit_seconds.push_back(pass.latency[k]);
    }
  }
  return s;
}

}  // namespace

RunResult run_admit_session(const RunConfig& cfg) {
  // The first pass's responses repeat run to run despite the program's
  // heap-dependent flip (README, Program defects the checks report): it runs
  // on a fresh malloc arena (play) before any timing-dependent allocation.
  // That pass is the one checked; set-up, whose repetition count depends on
  // time, is measured after the checks.
  Script script = make_script(cfg.seed);
  SpeedProbe probe;
  const auto setup = [&script, &cfg] {
    script = make_script(cfg.seed);
    const svc::AdmissionService service(service_config());
  };

  telemetry::set_enabled(false);
  if (!cfg.trace) {
    std::vector<SessionPass> raw;
    run_passes(cfg.seconds, [&script, &raw, &probe] {
      raw.push_back(play(script, probe, nullptr));
      return raw.back().summary;
    });
    const double rss = peak_rss_mb();
    const Checks c = check_outputs(cfg, script, raw.front());
    for (std::size_t p = 1; p < raw.size(); ++p) {
      std::size_t differ = 0;
      for (std::size_t k = 0; k < script.lines.size(); ++k) {
        if (raw[p].responses[k] != raw.front().responses[k]) ++differ;
      }
      std::cerr << "admit-session: pass " << p << " (not checked) gives "
                << differ << " responses unlike the checked first pass\n";
    }
    const double setup_s = median_setup_seconds(probe, setup);
    std::vector<PassSummary> passes;
    for (SessionPass& p : raw) passes.push_back(summarize(p, c.decoded));
    return timed_result(setup_s, passes, rss, c,
                        "cold verdict");
  }

  const SessionPass untraced = play(script, probe, nullptr);
  Tracer tracer;
  telemetry::set_enabled(true);
  const auto before = telemetry::snapshot();
  const SessionPass traced = play(script, probe, &tracer);
  const TelemetryDelta delta(before, telemetry::snapshot());
  telemetry::set_enabled(false);

  const Checks c = check_outputs(cfg, script, untraced);
  LayerMetrics layers(cfg.declared.per_layer);
  layers.add_telemetry(delta);
  add_class_latencies(layers, untraced, c.decoded);

  // Replays of the service's own building blocks on the session's inputs.
  Clock::time_point t0 = Clock::now();
  for (const std::string& line : script.lines) (void)svc::parse_json(line);
  layers.set("svc.parse_replay_s", seconds_since(t0));
  std::vector<svc::Json> parsed;
  for (const std::string& r : traced.responses) {
    parsed.push_back(svc::parse_json(r));
  }
  t0 = Clock::now();
  for (const svc::Json& j : parsed) (void)j.dump();
  layers.set("svc.dump_replay_s", seconds_since(t0));

  std::vector<std::pair<rt::TaskSet, svc::AnalysisMode>> verdict_sets;
  std::vector<ReplayInput> replays;
  double greedy_rounds = 0.0;
  std::set<std::string> cold_seen;
  for (const Decoded& d : c.decoded) {
    if (d.latency_class == LatencyClass::kNone) continue;
    const svc::AnalysisMode mode = *svc::parse_mode(d.mode);
    const rt::TaskSet tasks = verdict_tasks(script, d);
    verdict_sets.emplace_back(tasks, mode);
    if (d.latency_class != LatencyClass::kCold) continue;
    if (!cold_seen.insert(d.mode + d.fingerprint).second) continue;
    replays.push_back({tasks, mode == svc::AnalysisMode::kWp, d.wcrt, {}});
    if (mode == svc::AnalysisMode::kGreedy) {
      an::AnalysisEngine engine;
      greedy_rounds +=
          static_cast<double>(engine.analyze_proposed(tasks).rounds);
    }
  }
  t0 = Clock::now();
  for (const auto& [tasks, mode] : verdict_sets) {
    (void)svc::fingerprint(tasks, mode);
  }
  layers.set("svc.fingerprint_replay_s", seconds_since(t0));
  layers.set("analysis.greedy_rounds", greedy_rounds,
             "sum of ProposedResult::rounds over distinct cold greedy "
             "verdicts, fresh-engine replay");

  t0 = Clock::now();
  (void)make_script(cfg.seed);
  layers.set("gen.generate_replay_s", seconds_since(t0),
             "script generation, task sets drawn by gen");
  add_replay_metrics(layers, replay_final_windows(replays));
  // Every request is a unit of the paired overhead, not only cold ones.
  PassSummary traced_requests = traced.summary;
  traced_requests.unit_seconds = traced.latency;
  PassSummary untraced_requests = untraced.summary;
  untraced_requests.unit_seconds = untraced.latency;
  add_trace_overhead(layers, traced_requests, untraced_requests);

  return traced_result(layers, c, tracer, cfg.workdir);
}

}  // namespace perfbench
