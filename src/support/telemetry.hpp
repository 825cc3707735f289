// Low-overhead solver/analysis telemetry: named counters, wall-time timers,
// and log-bucketed histograms collected into thread-local shards that are
// merged on scrape.
//
// Design goals (DESIGN.md-style contract):
//  * Hot-path cost is one relaxed atomic load + one uncontended mutex per
//    event when enabled, and a single branch when disabled
//    (`MCS_TELEMETRY=0`, or set_enabled(false)).
//  * Instrumentation sits at *solve / run boundaries* (one call per LP
//    solve, per MILP, per simulated trace), never inside inner pivot loops,
//    so the enabled overhead stays far below measurement noise.
//  * snapshot() merges every thread's shard without stopping writers;
//    values are monotone between reset() calls.
//  * A thread's shard is folded into one retired shard when the thread
//    exits, so short-lived threads leave no per-thread state behind.
//
// The JSON snapshot schema (telemetry_export.cpp, schema id
// "mcs-telemetry-v1"):
//
//   {
//     "schema": "mcs-telemetry-v1",
//     "counters":   { "<name>": <uint> , ... },
//     "timers":     { "<name>": {"count":n, "total_seconds":x,
//                                "min_seconds":x, "max_seconds":x}, ... },
//     "histograms": { "<name>": {"count":n, "sum":x, "min":x, "max":x,
//                                "p50":x, "p90":x, "p99":x}, ... }
//   }
//
// Percentiles are estimated from geometric buckets (ratio 2^(1/4), i.e.
// <= ~19% relative error per bucket) and clamped to the exact observed
// min/max.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace mcs::support::telemetry {

/// True unless collection is switched off (MCS_TELEMETRY=0 in the
/// environment, or a prior set_enabled(false)).  The environment is read
/// once on first use.
bool enabled() noexcept;

/// Programmatic override of MCS_TELEMETRY (used by tests and by front ends
/// that force collection on behalf of a --telemetry flag).
void set_enabled(bool on) noexcept;

/// Adds `delta` to the counter `name`.  No-op when disabled.
void count(std::string_view name, std::uint64_t delta = 1);

/// Records one sample into the histogram `name`.  No-op when disabled.
void record(std::string_view name, double value);

/// Adds one timed span to the timer `name`.  No-op when disabled.
void add_time(std::string_view name, double seconds);

/// Merged view of one timer across all shards.
struct TimerStat {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Merged view of one histogram across all shards.
struct HistogramStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time merge of every shard (ordered maps: deterministic output).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, TimerStat> timers;
  std::map<std::string, HistogramStat> histograms;

  bool empty() const noexcept {
    return counters.empty() && timers.empty() && histograms.empty();
  }
};

/// Merges all thread shards into a snapshot.  Safe to call concurrently
/// with writers (each shard is locked briefly).
Snapshot snapshot();

/// Clears every counter / timer / histogram in every shard.  Intended for
/// tests and for separating phases of a long-running process.
void reset();

/// RAII wall-clock timer: measures construction-to-destruction and feeds
/// add_time(name).  When telemetry is disabled at construction the
/// destructor does nothing (no clock reads at all).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  bool armed_;
};

/// Writes `snap` as JSON (schema "mcs-telemetry-v1") to `out`.
void write_json(const Snapshot& snap, std::ostream& out);

/// snapshot() + write_json to `path`.  Throws std::runtime_error when the
/// file cannot be opened.
void write_json_file(const std::filesystem::path& path);

}  // namespace mcs::support::telemetry
