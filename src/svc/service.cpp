#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/budget.hpp"
#include "analysis/engine.hpp"
#include "check/check.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "support/contracts.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/request_log.hpp"

namespace mcs::svc {

namespace telemetry = support::telemetry;
using support::Json;
using support::JsonError;
using support::parse_json;

namespace {

/// Protocol-level failure: rendered as {"ok":false,"error":{code,message}}.
struct ProtocolError {
  std::string code;
  std::string message;
};

constexpr std::size_t kMaxTaskNameBytes = 256;

Json jstr(std::string text) { return Json(std::move(text)); }
Json jint(std::int64_t value) { return Json(value); }

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::string ok_response(const Json& id, Json::Object body) {
  Json::Object top;
  top.emplace_back("ok", Json(true));
  if (!id.is_null()) top.emplace_back("id", id);
  for (auto& kv : body) top.push_back(std::move(kv));
  return Json(std::move(top)).dump();
}

std::string error_response(const Json& id, const std::string& code,
                           const std::string& message,
                           Json::Object extra = {}) {
  Json::Object err;
  err.emplace_back("code", jstr(code));
  err.emplace_back("message", jstr(message));
  for (auto& kv : extra) err.push_back(std::move(kv));
  Json::Object top;
  top.emplace_back("ok", Json(false));
  if (!id.is_null()) top.emplace_back("id", id);
  top.emplace_back("error", Json(std::move(err)));
  return Json(std::move(top)).dump();
}

const Json& require_field(const Json& obj, const char* key) {
  const Json* j = obj.find(key);
  if (j == nullptr) {
    throw ProtocolError{"bad_request", std::string("missing field: ") + key};
  }
  return *j;
}

std::string require_string(const Json& obj, const char* key) {
  const Json& j = require_field(obj, key);
  if (!j.is_string()) {
    throw ProtocolError{"bad_request", std::string(key) + " must be a string"};
  }
  return j.as_string();
}

rt::Time require_tick(const Json& obj, const char* key) {
  const Json& j = require_field(obj, key);
  try {
    return j.as_int64();
  } catch (const JsonError& e) {
    throw ProtocolError{"bad_request", std::string(key) + ": " + e.what()};
  }
}

/// Parses a task object: {"name","exec","copy_in","copy_out","period",
/// "deadline","prio"[,"ls"]}.  Priorities are explicit and validated by
/// TaskSet (duplicates rejected by the caller); tick fields go through the
/// exact-int64 path, so NaN / overflow / fractional inputs are structured
/// errors, never silent truncation.
rt::Task parse_task(const Json& obj) {
  if (!obj.is_object()) {
    throw ProtocolError{"bad_request", "task must be a JSON object"};
  }
  rt::Task t;
  t.name = require_string(obj, "name");
  if (t.name.empty() || t.name.size() > kMaxTaskNameBytes) {
    throw ProtocolError{"bad_request",
                        "task name must be 1..256 bytes"};
  }
  t.exec = require_tick(obj, "exec");
  t.copy_in = require_tick(obj, "copy_in");
  t.copy_out = require_tick(obj, "copy_out");
  t.period = require_tick(obj, "period");
  t.deadline = require_tick(obj, "deadline");
  const rt::Time prio = require_tick(obj, "prio");
  if (prio < 0 ||
      prio > static_cast<rt::Time>(std::numeric_limits<rt::Priority>::max())) {
    throw ProtocolError{"bad_request", "prio out of range"};
  }
  t.priority = static_cast<rt::Priority>(prio);
  if (const Json* ls = obj.find("ls")) {
    if (!ls->is_bool()) {
      throw ProtocolError{"bad_request", "ls must be a boolean"};
    }
    t.latency_sensitive = ls->as_bool();
  }
  return t;
}

/// Runs one full analysis of `tasks` under `mode` on a fresh engine and
/// shapes the outcome into the canonical-order Verdict the cache stores.
/// A fresh engine per analysis keeps every verdict independent of what the
/// service analyzed before: at the default nonzero MILP gap, incumbents
/// carried over from earlier solves could move a WCRT within the gap.
Verdict run_analysis(const rt::TaskSet& tasks, AnalysisMode mode,
                     const analysis::SolveBudget& budget) {
  analysis::AnalysisEngine engine;
  analysis::AnalysisOptions options;
  options.budget = &budget;
  Verdict v;
  const std::vector<rt::TaskIndex> order = canonical_order(tasks);
  v.names.reserve(order.size());
  v.wcrt.reserve(order.size());
  v.ls.reserve(order.size());
  switch (mode) {
    case AnalysisMode::kGreedy: {
      const analysis::ProposedResult r = engine.analyze_proposed(tasks, options);
      v.schedulable = r.schedulable;
      v.degraded = r.degraded;
      v.relaxation = r.any_relaxation_fallback;
      v.rounds = static_cast<int>(r.rounds);
      for (const rt::TaskIndex i : order) {
        v.names.push_back(tasks[i].name);
        v.wcrt.push_back(r.per_task[i].wcrt);
        v.ls.push_back(r.ls_flags[i]);
      }
      break;
    }
    case AnalysisMode::kMarked: {
      const analysis::WpResult r = engine.analyze_marked(tasks, options);
      v.schedulable = r.schedulable;
      v.degraded = r.degraded;
      v.relaxation = r.any_relaxation_fallback;
      for (const rt::TaskIndex i : order) {
        v.names.push_back(tasks[i].name);
        v.wcrt.push_back(r.per_task[i].wcrt);
        v.ls.push_back(tasks[i].latency_sensitive);
      }
      break;
    }
    case AnalysisMode::kWp: {
      const analysis::WpResult r = engine.analyze_wp(tasks, options);
      v.schedulable = r.schedulable;
      v.degraded = r.degraded;
      v.relaxation = r.any_relaxation_fallback;
      for (const rt::TaskIndex i : order) {
        v.names.push_back(tasks[i].name);
        v.wcrt.push_back(r.per_task[i].wcrt);
        v.ls.push_back(false);
      }
      break;
    }
  }
  return v;
}

bool verdicts_equal(const Verdict& a, const Verdict& b) {
  return a.schedulable == b.schedulable && a.degraded == b.degraded &&
         a.relaxation == b.relaxation && a.rounds == b.rounds &&
         a.names == b.names && a.wcrt == b.wcrt && a.ls == b.ls;
}

/// MCS_CHECK_LEVEL >= 1 audit: a cache hit must byte-match a fresh
/// single-shot engine run.  Cached entries are never degraded and a budget
/// that never fires cannot change results, so the fresh run uses an
/// unlimited budget and the comparison is exact.
void audit_cache_hit(const rt::TaskSet& tasks, AnalysisMode mode,
                     const Verdict& cached, std::uint64_t fp) {
  const analysis::SolveBudget unlimited;
  const Verdict recomputed = run_analysis(tasks, mode, unlimited);
  telemetry::count("svc.check.cache_audits");
  if (!verdicts_equal(recomputed, cached)) {
    support::contract_fail(
        "invariant", "cached verdict == fresh verdict", __FILE__, __LINE__,
        "svc verdict-cache audit mismatch for fingerprint " + hex64(fp) +
            " (mode " + to_string(mode) + ")");
  }
}

Json verdict_json(const Verdict& v, std::uint64_t fp, bool cached) {
  Json::Object o;
  o.emplace_back("schedulable", Json(v.schedulable));
  o.emplace_back("degraded", Json(v.degraded));
  o.emplace_back("relaxation", Json(v.relaxation));
  o.emplace_back("rounds", jint(v.rounds));
  o.emplace_back("fingerprint", jstr(hex64(fp)));
  o.emplace_back("cached", Json(cached));
  Json::Array tasks;
  tasks.reserve(v.names.size());
  for (std::size_t i = 0; i < v.names.size(); ++i) {
    Json::Object t;
    t.emplace_back("name", jstr(v.names[i]));
    t.emplace_back("wcrt", v.wcrt[i] == rt::kTimeMax
                               ? Json()
                               : jint(v.wcrt[i]));
    t.emplace_back("ls", Json(static_cast<bool>(v.ls[i])));
    tasks.emplace_back(Json(std::move(t)));
  }
  o.emplace_back("tasks", Json(std::move(tasks)));
  return Json(std::move(o));
}

}  // namespace

struct CoreState {
  std::mutex mutex;  ///< serializes requests targeting this core
  /// Currently-admitted tasks, insertion order (canonicalized on analysis).
  std::vector<rt::Task> tasks;
};

struct AdmissionService::Impl {
  explicit Impl(ServiceConfig cfg)
      : config(std::move(cfg)), cache(config.cache_capacity) {
    if (!config.log_path.empty()) {
      log = std::make_unique<RequestLogWriter>(config.log_path,
                                               config.log_truncate);
    }
    pool = std::make_unique<support::ThreadPool>(config.threads);
  }

  CoreState& core(const std::string& name) {
    const std::lock_guard<std::mutex> lock(cores_mutex);
    std::unique_ptr<CoreState>& slot = cores[name];
    if (slot == nullptr) slot = std::make_unique<CoreState>();
    return *slot;
  }

  analysis::SolveBudget make_budget(const Json& req) const {
    const Json* j = req.find("budget_ms");
    double ms = config.default_budget_ms;
    bool explicit_budget = false;
    if (j != nullptr) {
      try {
        ms = j->as_number();
      } catch (const JsonError& e) {
        throw ProtocolError{"bad_request",
                            std::string("budget_ms: ") + e.what()};
      }
      if (ms < 0) {
        throw ProtocolError{"bad_request", "budget_ms must be >= 0"};
      }
      explicit_budget = true;
    }
    // Config default 0 means "no budget"; an *explicit* budget_ms of 0 is
    // the deterministic pure-relaxation fast path (docs/SERVICE.md).
    if (!explicit_budget && ms <= 0) return analysis::SolveBudget{};
    if (ms == 0) return analysis::SolveBudget::exhausted();
    return analysis::SolveBudget::after(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double, std::milli>(ms)));
  }

  std::string render_status(const Json& id, const ServiceStats& s) {
    Json::Object st;
    st.emplace_back("requests", jint(static_cast<std::int64_t>(s.requests)));
    st.emplace_back("failed", jint(static_cast<std::int64_t>(s.failed)));
    st.emplace_back("shed", jint(static_cast<std::int64_t>(s.shed)));
    st.emplace_back("cache_hits",
                    jint(static_cast<std::int64_t>(s.cache_hits)));
    st.emplace_back("cache_misses",
                    jint(static_cast<std::int64_t>(s.cache_misses)));
    st.emplace_back("cache_evictions",
                    jint(static_cast<std::int64_t>(s.cache_evictions)));
    st.emplace_back("cache_entries",
                    jint(static_cast<std::int64_t>(s.cache_entries)));
    st.emplace_back("degraded_verdicts",
                    jint(static_cast<std::int64_t>(s.degraded_verdicts)));
    st.emplace_back("admitted", jint(static_cast<std::int64_t>(s.admitted)));
    st.emplace_back("rejected", jint(static_cast<std::int64_t>(s.rejected)));
    st.emplace_back("cores", jint(static_cast<std::int64_t>(s.cores)));
    st.emplace_back("queue_depth",
                    jint(static_cast<std::int64_t>(s.queue_depth)));
    Json::Object body;
    body.emplace_back("op", jstr("status"));
    body.emplace_back("stats", Json(std::move(st)));
    return ok_response(id, std::move(body));
  }

  ServiceStats snapshot_stats() {
    ServiceStats s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses.load(std::memory_order_relaxed);
    s.cache_evictions = cache_evictions.load(std::memory_order_relaxed);
    s.degraded_verdicts = degraded_verdicts.load(std::memory_order_relaxed);
    s.admitted = admitted.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(cores_mutex);
      s.cores = cores.size();
    }
    {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      s.cache_entries = cache.size();
    }
    s.queue_depth = pending.load(std::memory_order_relaxed);
    return s;
  }

  /// Looks up / computes the verdict for `tasks` under `mode`.
  Verdict verdict_for(const rt::TaskSet& tasks, AnalysisMode mode,
                      const analysis::SolveBudget& budget, std::uint64_t fp,
                      bool& cached) {
    cached = false;
    // Empty sets deliberately take the normal path: the engine answers them
    // trivially, and keeping one path means every response — including this
    // one — equals a fresh single-shot engine run (the differential-fuzz
    // contract and the MCS_CHECK_LEVEL>=1 cache audit both rely on it).
    {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      if (std::optional<Verdict> hit = cache.lookup(fp)) {
        cached = true;
        cache_hits.fetch_add(1, std::memory_order_relaxed);
        telemetry::count("svc.cache.hits");
        Verdict v = std::move(*hit);
        return v;
      }
    }
    cache_misses.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("svc.cache.misses");
    Verdict v = run_analysis(tasks, mode, budget);
    if (v.degraded) {
      // Budget-truncated: wall-clock dependent and pessimistic — serving
      // it later would shortchange a caller who asked for a full solve.
      degraded_verdicts.fetch_add(1, std::memory_order_relaxed);
      telemetry::count("svc.degraded_verdicts");
      telemetry::count("svc.cache.bypass");
    } else {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      if (cache.insert(fp, v)) {
        cache_evictions.fetch_add(1, std::memory_order_relaxed);
        telemetry::count("svc.cache.evictions");
      }
    }
    return v;
  }

  std::string process(const std::string& line);

  ServiceConfig config;
  std::mutex cores_mutex;
  std::map<std::string, std::unique_ptr<CoreState>> cores;
  std::mutex cache_mutex;
  VerdictCache cache;
  std::unique_ptr<RequestLogWriter> log;
  std::unique_ptr<support::ThreadPool> pool;
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> shutdown{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> degraded_verdicts{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};
};

std::string AdmissionService::Impl::process(const std::string& line) {
  Json id;
  try {
    if (line.size() > config.max_request_bytes) {
      throw ProtocolError{"request_too_large",
                          "request exceeds " +
                              std::to_string(config.max_request_bytes) +
                              " bytes"};
    }
    Json req;
    try {
      req = parse_json(line);
    } catch (const JsonError& e) {
      throw ProtocolError{"parse_error", e.what()};
    }
    if (!req.is_object()) {
      throw ProtocolError{"bad_request", "request must be a JSON object"};
    }
    if (const Json* j = req.find("id")) id = *j;
    const Json* opj = req.find("op");
    if (opj == nullptr || !opj->is_string()) {
      throw ProtocolError{"bad_request", "missing string field: op"};
    }
    const std::string op = opj->as_string();

    if (op == "status") return render_status(id, snapshot_stats());
    if (op == "shutdown") {
      shutdown.store(true);
      Json::Object body;
      body.emplace_back("op", jstr("shutdown"));
      return ok_response(id, std::move(body));
    }
    if (op != "analyze" && op != "admit" && op != "remove" &&
        op != "mark_ls") {
      throw ProtocolError{"unknown_op", "unknown op: " + op};
    }

    std::string core_name = "default";
    if (const Json* j = req.find("core")) {
      if (!j->is_string() || j->as_string().empty()) {
        throw ProtocolError{"bad_request", "core must be a non-empty string"};
      }
      core_name = j->as_string();
    }

    AnalysisMode mode = AnalysisMode::kGreedy;
    if (const Json* j = req.find("mode")) {
      if (!j->is_string()) {
        throw ProtocolError{"bad_request", "mode must be a string"};
      }
      const std::optional<AnalysisMode> parsed = parse_mode(j->as_string());
      if (!parsed) {
        throw ProtocolError{"bad_request", "unknown mode: " + j->as_string()};
      }
      mode = *parsed;
    }

    const analysis::SolveBudget budget = make_budget(req);

    CoreState& cs = core(core_name);
    const std::lock_guard<std::mutex> core_lock(cs.mutex);

    if (op == "remove") {
      const std::string name = require_string(req, "name");
      const auto it =
          std::find_if(cs.tasks.begin(), cs.tasks.end(),
                       [&name](const rt::Task& t) { return t.name == name; });
      if (it == cs.tasks.end()) {
        throw ProtocolError{"unknown_task", "no such task: " + name};
      }
      cs.tasks.erase(it);
      Json::Object body;
      body.emplace_back("op", jstr("remove"));
      body.emplace_back("core", jstr(core_name));
      body.emplace_back("removed", jstr(name));
      body.emplace_back("tasks",
                        jint(static_cast<std::int64_t>(cs.tasks.size())));
      return ok_response(id, std::move(body));
    }

    std::vector<rt::Task> candidate = cs.tasks;
    bool commit_on_schedulable = false;
    if (op == "analyze" || op == "admit") {
      const Json* tj = req.find("task");
      if (op == "admit" && tj == nullptr) {
        throw ProtocolError{"bad_request", "admit requires a task object"};
      }
      if (tj != nullptr) {
        const rt::Task t = parse_task(*tj);
        for (const rt::Task& existing : candidate) {
          if (existing.name == t.name) {
            throw ProtocolError{"duplicate_task",
                                "task already present: " + t.name};
          }
          if (existing.priority == t.priority) {
            throw ProtocolError{"duplicate_priority",
                                "priority " + std::to_string(t.priority) +
                                    " already taken by " + existing.name};
          }
        }
        if (op == "admit" && candidate.size() >= config.max_tasks_per_core) {
          throw ProtocolError{"task_limit",
                              "core holds the maximum of " +
                                  std::to_string(config.max_tasks_per_core) +
                                  " tasks"};
        }
        candidate.push_back(t);
      }
      commit_on_schedulable = op == "admit";
    } else {  // mark_ls
      const std::string name = require_string(req, "name");
      const Json& lsj = require_field(req, "ls");
      if (!lsj.is_bool()) {
        throw ProtocolError{"bad_request", "ls must be a boolean"};
      }
      const auto it =
          std::find_if(candidate.begin(), candidate.end(),
                       [&name](const rt::Task& t) { return t.name == name; });
      if (it == candidate.end()) {
        throw ProtocolError{"unknown_task", "no such task: " + name};
      }
      it->latency_sensitive = lsj.as_bool();
      // mark_ls validates the *explicit* marking it creates; the greedy
      // re-marking modes would ignore the flag being toggled.
      mode = AnalysisMode::kMarked;
      commit_on_schedulable = true;
    }

    rt::TaskSet tasks;
    try {
      tasks = rt::TaskSet(candidate);
    } catch (const support::ContractViolation& e) {
      throw ProtocolError{"invalid_task", e.what()};
    }

    const std::uint64_t fp = fingerprint(tasks, mode);
    bool cached = false;
    const Verdict verdict = verdict_for(tasks, mode, budget, fp, cached);
    if (cached && check::enabled(check::kLevelLint)) {
      audit_cache_hit(tasks, mode, verdict, fp);
    }

    bool committed = false;
    if (commit_on_schedulable) {
      if (verdict.schedulable) {
        // Safe even when degraded: degraded bounds only over-estimate, so
        // a schedulable verdict under them is a fortiori sound.
        cs.tasks = std::move(candidate);
        committed = true;
        admitted.fetch_add(1, std::memory_order_relaxed);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }

    Json::Object body;
    body.emplace_back("op", jstr(op));
    body.emplace_back("core", jstr(core_name));
    body.emplace_back("mode", jstr(to_string(mode)));
    if (commit_on_schedulable) {
      body.emplace_back("committed", Json(committed));
    }
    body.emplace_back("verdict", verdict_json(verdict, fp, cached));
    return ok_response(id, std::move(body));
  } catch (const ProtocolError& e) {
    failed.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("svc.requests_failed");
    return error_response(id, e.code, e.message);
  } catch (const std::exception& e) {
    failed.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("svc.requests_failed");
    return error_response(id, "internal", e.what());
  }
}

AdmissionService::AdmissionService(ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

AdmissionService::~AdmissionService() = default;

std::string AdmissionService::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  std::string response = impl_->process(line);
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("svc.requests");
  telemetry::record(
      "svc.request_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (impl_->log != nullptr) impl_->log->append(line, response);
  return response;
}

void AdmissionService::submit(std::string line,
                              std::function<void(std::string)> done) {
  Impl& impl = *impl_;
  const std::size_t depth =
      impl.pending.fetch_add(1, std::memory_order_relaxed) + 1;
  telemetry::record("svc.queue_depth", static_cast<double>(depth));
  if (depth > impl.config.queue_high_water) {
    impl.pending.fetch_sub(1, std::memory_order_relaxed);
    impl.shed.fetch_add(1, std::memory_order_relaxed);
    impl.failed.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("svc.shed_requests");
    telemetry::count("svc.requests_failed");
    // Exponential retry-after in the overshoot: the deeper past the
    // high-water mark, the longer clients are asked to back off.
    const std::size_t overshoot = depth - impl.config.queue_high_water;
    std::uint64_t retry = impl.config.base_retry_ms;
    for (std::size_t i = 1;
         i < overshoot && retry < impl.config.max_retry_ms; ++i) {
      retry *= 2;
    }
    retry = std::min(retry, impl.config.max_retry_ms);
    Json::Object extra;
    extra.emplace_back("retry_after_ms",
                       jint(static_cast<std::int64_t>(retry)));
    std::string response =
        error_response(Json{}, "overloaded",
                       "service overloaded; retry later", std::move(extra));
    if (impl.log != nullptr) impl.log->append(line, response);
    done(std::move(response));
    return;
  }
  impl.pool->submit(
      [this, line = std::move(line), done = std::move(done)]() mutable {
        if (impl_->config.test_request_hook) impl_->config.test_request_hook();
        std::string response = handle_line(line);
        impl_->pending.fetch_sub(1, std::memory_order_relaxed);
        done(std::move(response));
      });
}

void AdmissionService::drain() { impl_->pool->wait_idle(); }

bool AdmissionService::shutdown_requested() const noexcept {
  return impl_->shutdown.load(std::memory_order_relaxed);
}

ServiceStats AdmissionService::stats() const { return impl_->snapshot_stats(); }

}  // namespace mcs::svc
