// AdmissionService: the long-running admission-control core
// (docs/SERVICE.md).
//
// Serves analyze / admit / remove / mark_ls / status / shutdown requests
// over a newline-delimited JSON protocol.  State is partitioned per named
// core: each core carries the currently-admitted rt::TaskSet.  Every cache
// miss is analyzed on a fresh analysis::AnalysisEngine, so a verdict never
// depends on what the service analyzed before.  A global bounded LRU
// verdict cache keyed by canonical task-set fingerprint gives O(1) answers
// for any membership state the service has fully analyzed before.
//
// Deadline budgets: each request may carry `budget_ms`; once the budget
// expires mid-analysis, remaining delay-MILP solves degrade to the safe LP
// dual bound and the verdict is tagged `degraded` (never an unsound
// "schedulable" — degraded bounds only over-estimate response times, see
// analysis/budget.hpp).  Degraded verdicts are never cached.
//
// Overload: submit() sheds requests once the queue exceeds
// `queue_high_water`, answering with a structured `overloaded` error and an
// exponential retry-after hint instead of queueing unboundedly.
//
// Thread safety: handle_line is safe from any number of threads.  Requests
// for the same core serialize on that core's mutex; different cores run
// concurrently.  For a fixed per-core request order the final state and
// every non-degraded verdict are independent of thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace mcs::svc {

struct ServiceConfig {
  /// Worker threads for submit(); handle_line itself never spawns.
  std::size_t threads = 1;
  /// Verdict-cache capacity in entries (0 disables caching).
  std::size_t cache_capacity = 256;
  /// submit() sheds once this many requests are queued or in flight.
  std::size_t queue_high_water = 64;
  /// Retry-after hint growth: base * 2^(overshoot), clamped to max.
  std::uint64_t base_retry_ms = 25;
  std::uint64_t max_retry_ms = 2000;
  /// Default per-request budget when the request has none; 0 = unlimited.
  double default_budget_ms = 0.0;
  /// Requests longer than this are rejected before parsing.
  std::size_t max_request_bytes = 1 << 20;
  /// Admission limit per core (admit answers `task_limit` beyond it).
  std::size_t max_tasks_per_core = 64;
  /// JSONL request log path; empty disables logging (svc/request_log.hpp).
  std::string log_path;
  bool log_truncate = false;
  /// Test seam: runs at the start of every submitted request's pool task
  /// (before handle_line).  Lets tests stall workers deterministically to
  /// exercise shedding.  Never set in production.
  std::function<void()> test_request_hook;
};

/// Monotonic counters snapshot (see also the svc.* telemetry keys,
/// docs/TELEMETRY.md).
struct ServiceStats {
  std::uint64_t requests = 0;        ///< lines fully processed
  std::uint64_t failed = 0;          ///< responses with ok:false (incl. shed)
  std::uint64_t shed = 0;            ///< rejected by overload protection
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;    ///< analyzed fresh (cacheable modes)
  std::uint64_t cache_evictions = 0;
  std::uint64_t degraded_verdicts = 0;
  std::uint64_t admitted = 0;        ///< admit/mark_ls commits
  std::uint64_t rejected = 0;        ///< admit/mark_ls refusals
  std::size_t cores = 0;             ///< distinct cores seen
  std::size_t cache_entries = 0;
  std::size_t queue_depth = 0;       ///< submit() backlog right now
};

class AdmissionService {
 public:
  explicit AdmissionService(ServiceConfig config = {});
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Processes one request line synchronously and returns the response
  /// line (no trailing newline).  Never throws: every failure — malformed
  /// JSON, protocol violations, analysis contract errors — becomes a
  /// structured `{"ok":false,"error":{...}}` response.
  std::string handle_line(const std::string& line);

  /// Queues `line` for processing on the worker pool; `done` receives the
  /// response line exactly once (possibly on a worker thread, possibly
  /// inline when the request is shed).
  void submit(std::string line, std::function<void(std::string)> done);

  /// Blocks until every submitted request has been answered.
  void drain();

  /// True once a `shutdown` request has been accepted.
  bool shutdown_requested() const noexcept;

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcs::svc
