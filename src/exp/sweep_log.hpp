// Crash-safe JSONL result log for sweep runs (schema "mcs-sweep-log-v2").
//
// One line per record.  The first line of a fresh log is a header that
// fingerprints the sweep (name, seed, axis, point/slot counts, a hash of
// the sweep values, shard layout, metric names); every subsequent line is
// the final outcome of one (point, slot) work unit:
//
//   {"schema":"mcs-sweep-log-v2","name":"fig2a","seed":"2020",...}
//   {"point":0,"slot":3,"status":"ok","attempts":1,"seconds":0.12,
//    "metrics":[1,1,1,0,0,0]}
//   {"point":0,"slot":4,"status":"error","attempts":2,"seconds":0.2,
//    "error":"..."}
//
// `seed` and `values_hash` are decimal strings: they use all 64 bits, and
// JSON integers stop at INT64_MAX.  A v1 log is refused as an unexpected
// schema.
//
// This file only maps the schema; the sweep runner writes the lines through
// support/jsonl.hpp, which owns the crash-safety rules.  `--resume` reads
// the log back, verifies the header against the sweep it is about to run,
// and skips every unit that already has a record.  Shard logs are merged
// the same way.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace mcs::exp {

/// Final outcome of one (point, slot) work unit.
struct UnitOutcome {
  std::size_t point = 0;
  std::size_t slot = 0;
  bool ok = false;
  std::uint32_t attempts = 0;
  double seconds = 0.0;
  /// Metric counts aligned with SweepSpec::metrics; empty on error.
  std::vector<std::uint64_t> metrics;
  /// Exception text of the last failed attempt; empty on success.
  std::string error;
};

/// Sweep fingerprint written as the first line of every log.
struct SweepLogHeader {
  std::string name;
  std::string axis;
  std::uint64_t seed = 0;
  std::size_t points = 0;
  std::size_t slots = 0;
  std::uint64_t values_hash = 0;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::vector<std::string> metrics;

  /// True when the logs describe the same sweep (shard layout may differ —
  /// that is the point of merging).
  bool same_sweep(const SweepLogHeader& other) const;
};

/// Order- and duplication-tolerant content of one log file.
struct SweepLogContents {
  std::optional<SweepLogHeader> header;
  std::vector<UnitOutcome> units;
  /// True when the file ended in a partial line (crash artifact, dropped).
  bool truncated_tail = false;
};

/// Reads a sweep log.  A missing file yields empty contents; a partial
/// trailing line is dropped (see truncated_tail); a malformed complete line
/// or a header of another schema throws std::runtime_error.
SweepLogContents read_sweep_log(const std::filesystem::path& path);

/// One log line (no newline) for support::JsonlAppender::append.
std::string sweep_log_line(const SweepLogHeader& header);
std::string sweep_log_line(const UnitOutcome& outcome);

}  // namespace mcs::exp
