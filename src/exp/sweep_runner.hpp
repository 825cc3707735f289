// Deterministic, resumable work-queue engine for parameter sweeps.
//
// Every experiment/bench sweep in the repo has the same shape: an x axis of
// sweep values, `slots_per_point` independent random instances per value,
// and a handful of integer metric counts per instance (schedulable under
// approach A, fell back to a dual bound, ...).  The runner flattens all
// (point, slot) pairs into ONE global queue on support::ThreadPool — no
// per-point barrier, so threads finishing a cheap point immediately steal
// units from expensive ones.
//
// Determinism contract: the RNG of unit (point, slot) is seeded purely by
// derive_seed(spec.seed, point, slot), and every aggregate (CSV row) is an
// order-independent sum of integer unit metrics.  The emitted CSV is
// therefore byte-identical across thread counts, shard layouts, and
// kill/--resume boundaries — enforced by tests/test_exp_sweep_runner.cpp.
//
// Crash safety: each finished unit is appended to a JSONL log
// (sweep_log.hpp) as one whole line; --resume reads the log back,
// verifies the sweep fingerprint, and skips completed units.  A unit whose
// evaluate() throws is retried up to `max_attempts` times and then recorded
// as an `error` record — the sweep completes, the row just aggregates one
// fewer instance.
//
// Sharding: `--shard=k/N` runs units with index % N == k; `merge_sweep_logs`
// combines the shard logs back into one complete outcome set for the final
// CSV and telemetry snapshot.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep_log.hpp"
#include "support/rng.hpp"

namespace mcs::exp {

/// One output column of a sweep.
struct MetricSpec {
  std::string column;  ///< CSV column name
  /// kRatio columns print metric_sum / ok_units (a schedulability ratio);
  /// kCount columns print the raw sum.
  enum Kind { kRatio, kCount } kind = kCount;
};

/// Identity of one work unit, handed to SweepSpec::evaluate.
struct SweepUnit {
  std::size_t index = 0;  ///< global index = point * slots_per_point + slot
  std::size_t point = 0;  ///< index into SweepSpec::values
  std::size_t slot = 0;   ///< instance index within the point
  double x = 0.0;         ///< values[point]
};

/// A complete sweep description: axis, per-unit work, metric layout.
struct SweepSpec {
  std::string name;   ///< e.g. "fig2a" (log/CSV file stem)
  std::string title;  ///< human-readable description
  std::string axis;   ///< x-axis CSV column, e.g. "U"
  std::vector<double> values;
  std::size_t slots_per_point = 40;
  std::uint64_t seed = 1;
  std::vector<MetricSpec> metrics;
  /// Evaluates one unit.  Receives an Rng seeded purely from
  /// (spec.seed, point, slot); must return one count per metrics entry.
  /// May throw — the runner retries, then records an error outcome.
  std::function<std::vector<std::uint64_t>(const SweepUnit&, support::Rng&)>
      evaluate;
};

/// Execution knobs, orthogonal to the sweep description.
struct RunnerOptions {
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// This process runs units with index % shard_count == shard_index.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// JSONL result log (empty = keep results in memory only).
  std::filesystem::path log_path;
  /// Skip units already recorded in log_path instead of truncating it.
  bool resume = false;
  /// Attempts per unit before recording an error outcome (>= 1).
  std::uint32_t max_attempts = 2;
  /// Test hook emulating a crash: stop evaluating after this many units
  /// (0 = no limit).  Remaining units get no record, as after a SIGKILL.
  std::size_t unit_limit = 0;
  /// Invoked after each finished unit with (done, total) for this process'
  /// shard; called under a lock, so it may write to a stream directly.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// What one run_sweep call did.
struct SweepRunResult {
  SweepLogHeader header;
  /// Outcomes for every unit of this shard, sorted by global index —
  /// includes units skipped via --resume (their logged outcomes).
  std::vector<UnitOutcome> outcomes;
  std::size_t resume_skips = 0;
  std::size_t retries = 0;  ///< failed attempts that were retried
  std::size_t errors = 0;   ///< units that exhausted their attempts
  std::size_t steals = 0;   ///< units run while an earlier point was open
  double total_seconds = 0.0;  ///< wall time of this call
};

/// One aggregated CSV row.
struct SweepRow {
  double x = 0.0;
  std::size_t ok_units = 0;  ///< successfully evaluated instances
  std::size_t errors = 0;    ///< instances that ended in an error record
  std::vector<std::uint64_t> metric_sums;  ///< aligned with spec.metrics
  double seconds = 0.0;  ///< sum of unit wall times (not in the CSV)
};

/// Order-independent fingerprint of the sweep's x values (chained
/// derive_seed over their bit patterns); stored in the log header so
/// --resume and merge refuse logs from a different sweep.
std::uint64_t sweep_values_hash(const SweepSpec& spec);

/// The header run_sweep would write for this spec and shard layout.
SweepLogHeader make_log_header(const SweepSpec& spec, std::size_t shard_index,
                               std::size_t shard_count);

/// Runs (this shard of) the sweep.  Throws on configuration errors and on a
/// resume log that belongs to a different sweep; unit failures do NOT throw
/// (they become error outcomes).
SweepRunResult run_sweep(const SweepSpec& spec, const RunnerOptions& options);

/// Sums unit outcomes into one row per sweep point.  Order-independent;
/// outcomes may cover any subset of units (e.g. one shard).
std::vector<SweepRow> aggregate_outcomes(
    const SweepSpec& spec, const std::vector<UnitOutcome>& outcomes);

/// Writes the deterministic sweep CSV (atomic temp + rename): axis column,
/// one column per metric (ratio or count), then ok-unit and error counts.
/// No wall-time columns — those live in the JSONL log and telemetry.
void write_sweep_csv(const SweepSpec& spec, const std::vector<SweepRow>& rows,
                     const std::filesystem::path& path);

/// Reads shard logs, verifies every one fingerprints `spec`, de-duplicates
/// (an `ok` record wins over an `error` record for the same unit), and
/// returns the complete outcome set sorted by global index.  Throws when a
/// log belongs to a different sweep or when any unit has no record at all.
std::vector<UnitOutcome> merge_sweep_logs(
    const SweepSpec& spec, const std::vector<std::filesystem::path>& logs);

}  // namespace mcs::exp
