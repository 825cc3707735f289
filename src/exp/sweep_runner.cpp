#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "support/contracts.hpp"
#include "support/csv.hpp"
#include "support/jsonl.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace mcs::exp {

namespace {

void validate_spec(const SweepSpec& spec) {
  MCS_REQUIRE(!spec.name.empty(), "sweep without a name");
  MCS_REQUIRE(!spec.values.empty(), "sweep without sweep points");
  MCS_REQUIRE(spec.slots_per_point > 0, "sweep without slots per point");
  MCS_REQUIRE(!spec.metrics.empty(), "sweep without metrics");
  MCS_REQUIRE(spec.evaluate != nullptr, "sweep without an evaluate function");
}

void validate_outcome_shape(const SweepSpec& spec, const UnitOutcome& unit,
                            const char* source) {
  if (unit.point >= spec.values.size() ||
      unit.slot >= spec.slots_per_point) {
    throw std::runtime_error(std::string("sweep ") + source +
                             ": unit (point, slot) out of range");
  }
  if (unit.ok && unit.metrics.size() != spec.metrics.size()) {
    throw std::runtime_error(std::string("sweep ") + source +
                             ": unit metric count does not match the spec");
  }
}

std::size_t unit_index(const SweepSpec& spec, const UnitOutcome& unit) {
  return unit.point * spec.slots_per_point + unit.slot;
}

/// De-duplicates outcomes by unit: an ok record beats an error record
/// (a later resume attempt may have succeeded); ties keep the first seen.
std::map<std::size_t, UnitOutcome> dedupe(
    const SweepSpec& spec, const std::vector<UnitOutcome>& units,
    const char* source) {
  std::map<std::size_t, UnitOutcome> by_index;
  for (const UnitOutcome& unit : units) {
    validate_outcome_shape(spec, unit, source);
    const std::size_t index = unit_index(spec, unit);
    const auto it = by_index.find(index);
    if (it == by_index.end()) {
      by_index.emplace(index, unit);
    } else if (unit.ok && !it->second.ok) {
      it->second = unit;
    }
  }
  return by_index;
}

}  // namespace

std::uint64_t sweep_values_hash(const SweepSpec& spec) {
  // Chained tuple hash: position-sensitive, so reordering or truncating
  // the value list changes the fingerprint.
  std::uint64_t hash = support::derive_seed(0x6d63732d, spec.values.size(),
                                            spec.slots_per_point);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    hash = support::derive_seed(hash, i,
                                std::bit_cast<std::uint64_t>(spec.values[i]));
  }
  return hash;
}

SweepLogHeader make_log_header(const SweepSpec& spec, std::size_t shard_index,
                               std::size_t shard_count) {
  SweepLogHeader header;
  header.name = spec.name;
  header.axis = spec.axis;
  header.seed = spec.seed;
  header.points = spec.values.size();
  header.slots = spec.slots_per_point;
  header.values_hash = sweep_values_hash(spec);
  header.shard_index = shard_index;
  header.shard_count = shard_count;
  header.metrics.reserve(spec.metrics.size());
  for (const MetricSpec& metric : spec.metrics) {
    header.metrics.push_back(metric.column);
  }
  return header;
}

SweepRunResult run_sweep(const SweepSpec& spec, const RunnerOptions& options) {
  validate_spec(spec);
  MCS_REQUIRE(options.shard_count >= 1, "shard count must be >= 1");
  MCS_REQUIRE(options.shard_index < options.shard_count,
              "shard index out of range");
  MCS_REQUIRE(options.max_attempts >= 1, "max_attempts must be >= 1");
  MCS_REQUIRE(options.resume == false || !options.log_path.empty(),
              "--resume requires a result log path");

  const auto t_start = std::chrono::steady_clock::now();
  const support::telemetry::ScopedTimer timer("exp.sweep.run");

  SweepRunResult result;
  result.header = make_log_header(spec, options.shard_index,
                                  options.shard_count);

  const std::size_t points = spec.values.size();
  const std::size_t total_units = points * spec.slots_per_point;

  // --- resume: load completed units from the existing log -----------------
  std::map<std::size_t, UnitOutcome> completed;
  bool log_has_valid_header = false;
  if (options.resume) {
    const SweepLogContents contents = read_sweep_log(options.log_path);
    if (contents.header.has_value()) {
      if (!contents.header->same_sweep(result.header) ||
          contents.header->shard_index != options.shard_index ||
          contents.header->shard_count != options.shard_count) {
        throw std::runtime_error(
            "sweep resume: " + options.log_path.string() +
            " was written by a different sweep or shard layout; refusing "
            "to resume (delete the log to start over)");
      }
      log_has_valid_header = true;
      completed = dedupe(spec, contents.units, "resume");
      for (const auto& [index, unit] : completed) {
        if (index % options.shard_count != options.shard_index) {
          throw std::runtime_error(
              "sweep resume: " + options.log_path.string() +
              " contains units outside this shard");
        }
        (void)unit;
      }
    }
    // No/invalid header (e.g. the run died before the header write hit the
    // disk): nothing to resume, fall through to a fresh log.
  }

  // --- result log ---------------------------------------------------------
  std::unique_ptr<support::JsonlAppender> log;
  if (!options.log_path.empty()) {
    log = std::make_unique<support::JsonlAppender>(
        options.log_path, /*truncate=*/!log_has_valid_header);
    if (!log_has_valid_header) {
      log->append(sweep_log_line(result.header));
    }
  }

  // --- work list for this shard -------------------------------------------
  std::vector<SweepUnit> units;
  units.reserve(total_units / options.shard_count + 1);
  for (std::size_t index = 0; index < total_units; ++index) {
    if (index % options.shard_count != options.shard_index) continue;
    if (completed.count(index) != 0) continue;
    SweepUnit unit;
    unit.index = index;
    unit.point = index / spec.slots_per_point;
    unit.slot = index % spec.slots_per_point;
    unit.x = spec.values[unit.point];
    units.push_back(unit);
  }
  result.resume_skips = completed.size();
  support::telemetry::count("exp.sweep.resume_skips", result.resume_skips);

  const std::size_t shard_total = units.size() + completed.size();

  // Pending units per point, for cross-point-overlap (steal) detection.
  std::vector<std::atomic<std::size_t>> open_per_point(points);
  for (const SweepUnit& unit : units) {
    open_per_point[unit.point].fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex mutex;  // guards outcomes / counters / progress below
  std::vector<UnitOutcome> outcomes;
  outcomes.reserve(units.size());
  std::size_t done = completed.size();
  std::atomic<std::size_t> started{0};

  const auto run_unit = [&](const SweepUnit& unit) {
    if (options.unit_limit != 0 &&
        started.fetch_add(1, std::memory_order_relaxed) >=
            options.unit_limit) {
      return;  // emulated crash: unit gets no record
    }

    // A unit is a "steal" when some earlier point still has open units —
    // exactly the overlap a per-point barrier forbids.
    bool stole = false;
    for (std::size_t q = 0; q < unit.point && !stole; ++q) {
      stole = open_per_point[q].load(std::memory_order_relaxed) != 0;
    }

    UnitOutcome outcome;
    outcome.point = unit.point;
    outcome.slot = unit.slot;
    const auto u_start = std::chrono::steady_clock::now();
    for (std::uint32_t attempt = 1; attempt <= options.max_attempts;
         ++attempt) {
      outcome.attempts = attempt;
      try {
        // A fresh RNG per attempt: the unit's stream depends only on
        // (seed, point, slot), never on retry history.
        support::Rng rng(
            support::derive_seed(spec.seed, unit.point, unit.slot));
        outcome.metrics = spec.evaluate(unit, rng);
        MCS_REQUIRE(outcome.metrics.size() == spec.metrics.size(),
                    "evaluate returned a wrong-size metric vector");
        outcome.ok = true;
        outcome.error.clear();
        break;
      } catch (const std::exception& e) {
        outcome.ok = false;
        outcome.metrics.clear();
        outcome.error = e.what();
      } catch (...) {
        outcome.ok = false;
        outcome.metrics.clear();
        outcome.error = "unknown exception";
      }
    }
    outcome.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - u_start)
                          .count();
    open_per_point[unit.point].fetch_sub(1, std::memory_order_relaxed);

    if (log) {
      log->append(sweep_log_line(outcome));
    }
    support::telemetry::count("exp.sweep.units_done");
    support::telemetry::record("exp.sweep.unit_seconds", outcome.seconds);
    if (stole) support::telemetry::count("exp.sweep.steals");
    if (!outcome.ok) support::telemetry::count("exp.sweep.errors");
    if (outcome.attempts > 1) {
      support::telemetry::count("exp.sweep.retries", outcome.attempts - 1);
    }

    const std::lock_guard<std::mutex> lock(mutex);
    if (stole) ++result.steals;
    if (!outcome.ok) ++result.errors;
    // Failed attempts that led to a retry: all but the last attempt.
    result.retries += outcome.attempts - 1;
    outcomes.push_back(std::move(outcome));
    ++done;
    if (options.progress) {
      options.progress(done, shard_total);
    }
  };

  support::ThreadPool pool(options.threads);
  for (const SweepUnit& unit : units) {
    pool.submit([&run_unit, unit] { run_unit(unit); });
  }
  pool.wait_idle();

  // Resumed outcomes join the fresh ones so callers see the whole shard.
  for (auto& [index, unit] : completed) {
    (void)index;
    outcomes.push_back(std::move(unit));
  }
  std::sort(outcomes.begin(), outcomes.end(),
            [&spec](const UnitOutcome& a, const UnitOutcome& b) {
              return unit_index(spec, a) < unit_index(spec, b);
            });
  result.outcomes = std::move(outcomes);
  result.total_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();
  return result;
}

std::vector<SweepRow> aggregate_outcomes(
    const SweepSpec& spec, const std::vector<UnitOutcome>& outcomes) {
  validate_spec(spec);
  std::vector<SweepRow> rows(spec.values.size());
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    rows[p].x = spec.values[p];
    rows[p].metric_sums.assign(spec.metrics.size(), 0);
  }
  for (const UnitOutcome& unit : outcomes) {
    validate_outcome_shape(spec, unit, "aggregate");
    SweepRow& row = rows[unit.point];
    row.seconds += unit.seconds;
    if (!unit.ok) {
      ++row.errors;
      continue;
    }
    ++row.ok_units;
    for (std::size_t m = 0; m < unit.metrics.size(); ++m) {
      row.metric_sums[m] += unit.metrics[m];
    }
  }
  return rows;
}

void write_sweep_csv(const SweepSpec& spec, const std::vector<SweepRow>& rows,
                     const std::filesystem::path& path) {
  MCS_REQUIRE(rows.size() == spec.values.size(),
              "row count does not match the sweep");
  support::CsvWriter csv(path);
  std::vector<std::string> header;
  header.reserve(spec.metrics.size() + 3);
  header.push_back(spec.axis);
  for (const MetricSpec& metric : spec.metrics) {
    header.push_back(metric.column);
  }
  header.push_back("tasksets");
  header.push_back("errors");
  csv.write_row(header);
  for (const SweepRow& row : rows) {
    csv.cell(row.x);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      if (spec.metrics[m].kind == MetricSpec::kRatio) {
        const double ratio =
            row.ok_units == 0
                ? 0.0
                : static_cast<double>(row.metric_sums[m]) /
                      static_cast<double>(row.ok_units);
        csv.cell(ratio);
      } else {
        csv.cell(static_cast<std::size_t>(row.metric_sums[m]));
      }
    }
    csv.cell(row.ok_units);
    csv.cell(row.errors);
    csv.end_row();
  }
  csv.close();
}

std::vector<UnitOutcome> merge_sweep_logs(
    const SweepSpec& spec, const std::vector<std::filesystem::path>& logs) {
  validate_spec(spec);
  MCS_REQUIRE(!logs.empty(), "merge without shard logs");
  const SweepLogHeader base = make_log_header(spec, 0, 1);

  std::vector<UnitOutcome> all;
  for (const std::filesystem::path& path : logs) {
    const SweepLogContents contents = read_sweep_log(path);
    if (!contents.header.has_value()) {
      throw std::runtime_error("sweep merge: " + path.string() +
                               " has no header (empty or truncated log)");
    }
    if (!contents.header->same_sweep(base)) {
      throw std::runtime_error("sweep merge: " + path.string() +
                               " belongs to a different sweep than '" +
                               spec.name + "'");
    }
    all.insert(all.end(), contents.units.begin(), contents.units.end());
  }

  std::map<std::size_t, UnitOutcome> by_index = dedupe(spec, all, "merge");
  const std::size_t total_units = spec.values.size() * spec.slots_per_point;
  if (by_index.size() != total_units) {
    std::size_t first_missing = total_units;
    for (std::size_t index = 0; index < total_units; ++index) {
      if (by_index.count(index) == 0) {
        first_missing = index;
        break;
      }
    }
    throw std::runtime_error(
        "sweep merge: incomplete — " +
        std::to_string(total_units - by_index.size()) + " of " +
        std::to_string(total_units) + " units have no record (first missing "
        "global index " + std::to_string(first_missing) +
        "); run the missing shards or --resume the killed one");
  }

  std::vector<UnitOutcome> merged;
  merged.reserve(total_units);
  for (auto& [index, unit] : by_index) {
    (void)index;
    merged.push_back(std::move(unit));
  }
  return merged;
}

}  // namespace mcs::exp
