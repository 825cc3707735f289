#include "exp/sweep_log.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "support/json.hpp"
#include "support/jsonl.hpp"

namespace mcs::exp {

namespace {

using support::Json;

constexpr const char* kSchema = "mcs-sweep-log-v2";

[[noreturn]] void unexpected_schema(const std::string& schema) {
  throw std::runtime_error("sweep log: unexpected schema '" + schema + "'");
}

const Json& field(const Json& record, const char* key) {
  const Json* value = record.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("sweep log: missing field '") +
                             key + "'");
  }
  return *value;
}

/// A count or index: a non-negative JSON integer.
std::uint64_t count_of(const Json& value) {
  const std::int64_t count = value.as_int64();
  if (count < 0) throw std::runtime_error("sweep log: negative count");
  return static_cast<std::uint64_t>(count);
}

std::size_t size_field(const Json& record, const char* key) {
  return static_cast<std::size_t>(count_of(field(record, key)));
}

/// Seeds and value hashes use all 64 bits, past JSON's INT64_MAX, so they
/// are written as decimal strings.
std::uint64_t decimal_field(const Json& record, const char* key) {
  const std::string& text = field(record, key).as_string();
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error(std::string("sweep log: field '") + key +
                             "' is not a decimal u64");
  }
  return value;
}

Json count_json(std::uint64_t value) {
  return Json(static_cast<std::int64_t>(value));
}

SweepLogHeader parse_header(const Json& record) {
  SweepLogHeader header;
  header.name = field(record, "name").as_string();
  header.axis = field(record, "axis").as_string();
  header.seed = decimal_field(record, "seed");
  header.points = size_field(record, "points");
  header.slots = size_field(record, "slots");
  header.values_hash = decimal_field(record, "values_hash");
  header.shard_index = size_field(record, "shard");
  header.shard_count = size_field(record, "shards");
  for (const Json& metric : field(record, "metrics").as_array()) {
    header.metrics.push_back(metric.as_string());
  }
  return header;
}

UnitOutcome parse_unit(const Json& record) {
  UnitOutcome unit;
  unit.point = size_field(record, "point");
  unit.slot = size_field(record, "slot");
  const std::string& status = field(record, "status").as_string();
  if (status == "ok") {
    unit.ok = true;
    for (const Json& metric : field(record, "metrics").as_array()) {
      unit.metrics.push_back(count_of(metric));
    }
  } else if (status == "error") {
    unit.error = field(record, "error").as_string();
  } else {
    throw std::runtime_error("sweep log: unknown status '" + status + "'");
  }
  unit.attempts = static_cast<std::uint32_t>(size_field(record, "attempts"));
  unit.seconds = field(record, "seconds").as_number();
  return unit;
}

/// True when the log's first line is a v1 header.  Those hold values_hash
/// as a bare u64, which the JSON parser rejects above INT64_MAX; checking
/// on a parse failure makes the error name the schema, not the overflow.
bool starts_as_v1(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string first;
  std::getline(in, first);
  return first.rfind(R"({"schema":"mcs-sweep-log-v1")", 0) == 0;
}

}  // namespace

bool SweepLogHeader::same_sweep(const SweepLogHeader& other) const {
  return name == other.name && axis == other.axis && seed == other.seed &&
         points == other.points && slots == other.slots &&
         values_hash == other.values_hash && metrics == other.metrics;
}

SweepLogContents read_sweep_log(const std::filesystem::path& path) {
  support::JsonlContents lines;
  try {
    lines = support::read_jsonl(path);
  } catch (const std::runtime_error&) {
    if (starts_as_v1(path)) unexpected_schema("mcs-sweep-log-v1");
    throw;
  }
  SweepLogContents contents;
  contents.truncated_tail = lines.truncated_tail;
  for (const Json& record : lines.records) {
    const Json* schema = record.find("schema");
    if (schema == nullptr) {
      contents.units.push_back(parse_unit(record));
      continue;
    }
    if (schema->as_string() != kSchema) unexpected_schema(schema->as_string());
    SweepLogHeader header = parse_header(record);
    if (!contents.header.has_value()) {
      contents.header = std::move(header);
    } else if (!contents.header->same_sweep(header)) {
      throw std::runtime_error(
          "sweep log: header mismatch inside " + path.string() +
          " (concatenated logs from different sweeps?)");
    }
  }
  return contents;
}

std::string sweep_log_line(const SweepLogHeader& header) {
  Json::Array metrics;
  for (const std::string& metric : header.metrics) metrics.emplace_back(metric);
  const Json record(Json::Object{
      {"schema", Json(std::string(kSchema))},
      {"name", Json(header.name)},
      {"axis", Json(header.axis)},
      {"seed", Json(std::to_string(header.seed))},
      {"points", count_json(header.points)},
      {"slots", count_json(header.slots)},
      {"values_hash", Json(std::to_string(header.values_hash))},
      {"shard", count_json(header.shard_index)},
      {"shards", count_json(header.shard_count)},
      {"metrics", Json(std::move(metrics))},
  });
  return record.dump();
}

std::string sweep_log_line(const UnitOutcome& outcome) {
  Json::Object record{
      {"point", count_json(outcome.point)},
      {"slot", count_json(outcome.slot)},
      {"status", Json(std::string(outcome.ok ? "ok" : "error"))},
      {"attempts", count_json(outcome.attempts)},
      {"seconds", Json(outcome.seconds)},
  };
  if (outcome.ok) {
    Json::Array metrics;
    for (const std::uint64_t metric : outcome.metrics) {
      metrics.push_back(count_json(metric));
    }
    record.emplace_back("metrics", Json(std::move(metrics)));
  } else {
    record.emplace_back("error", Json(outcome.error));
  }
  return Json(std::move(record)).dump();
}

}  // namespace mcs::exp
