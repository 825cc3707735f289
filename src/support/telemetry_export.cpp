// JSON export of telemetry snapshots (schema "mcs-telemetry-v1", see
// telemetry.hpp for the layout).  Streamed by hand rather than through
// support::Json so the snapshot keeps its pretty-printed layout; names go
// through support::json_escape.
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace mcs::support::telemetry {

namespace {

/// Round-trippable double formatting; JSON has no Infinity/NaN literals, so
/// non-finite values (which the registry never produces from sane inputs)
/// degrade to 0.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

}  // namespace

void write_json(const Snapshot& snap, std::ostream& out) {
  out << "{\n  \"schema\": \"mcs-telemetry-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"timers\": {";
  first = true;
  for (const auto& [name, t] : snap.timers) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << t.count
        << ", \"total_seconds\": " << number(t.total_seconds)
        << ", \"min_seconds\": " << number(t.min_seconds)
        << ", \"max_seconds\": " << number(t.max_seconds) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << h.count << ", \"sum\": " << number(h.sum)
        << ", \"min\": " << number(h.min) << ", \"max\": " << number(h.max)
        << ", \"p50\": " << number(h.p50) << ", \"p90\": " << number(h.p90)
        << ", \"p99\": " << number(h.p99) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void write_json_file(const std::filesystem::path& path) {
  // Temp-file + rename: a reader (or a crash) never sees a half-written
  // snapshot where a complete one is expected.
  const std::filesystem::path tmp(path.string() + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("telemetry: cannot open " + tmp.string());
    }
    write_json(snapshot(), out);
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("telemetry: write failed for " +
                               tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw std::runtime_error("telemetry: cannot rename " + tmp.string() +
                             " to " + path.string() + ": " + ec.message());
  }
}

}  // namespace mcs::support::telemetry
