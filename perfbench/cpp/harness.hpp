// Measurement plumbing shared by the three workloads: clocks, percentile
// rules, latency classes, ratios with their bases, in-memory spans,
// telemetry deltas, the metric table and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Samples strictly above the q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The percentile-reporting rule: the highest of p50, p90, p95, p99 and
/// p99.9 that has at least ten samples beyond it; 0 when not even the
/// median has.
double highest_supported_percentile(std::size_t n);

/// "p95 (n=412, 20 beyond; highest supported p95)" — flags a percentile
/// with fewer than ten samples beyond it as under-sampled.
std::string describe_percentile(std::size_t n, double q);

/// Latency class of one admission-service response, read from its
/// verdict: `cached:true` is a hit, `degraded:true` is degraded, any other
/// verdict is cold.  Responses without a verdict (remove, errors) are
/// kNone.
enum class LatencyClass { kNone, kCold, kHit, kDegraded };
LatencyClass classify_response(std::string_view response);

/// An admission-service response with every `cached` field removed: the
/// only field a transcript may differ in from `mcs_cli admit --script`.
std::string strip_cached(std::string response);

/// True when two responses to the same request differ only the way the
/// program's known heap-dependent defect makes them differ
/// (perfbench/README.md): the verdict's `relaxation` flag, and task WCRTs
/// by at most one tick — or, when either verdict rests on a relaxation
/// (gap-terminated) bound, by at most the analysis's relative MILP gap.
/// Every other byte, `cached` aside, must be equal.
bool is_known_flip(const std::string& ours, const std::string& theirs);

/// A ratio that always travels with its base.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  double value() const noexcept {
    return denominator > 0.0 ? numerator / denominator : 0.0;
  }
  /// "0.9310 (= 1234 / 1325)".
  std::string describe() const;
};

/// One printed metric; `note` carries a ratio's base or a sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {});
  const std::vector<Metric>& items() const noexcept { return items_; }
  /// Value of `name`; throws std::out_of_range when absent.
  double value(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

/// A metric as BENCHMARK.json declares it; the file is the only list of
/// metric names and units.
struct DeclaredMetric {
  std::string name;
  std::string unit;
};

struct DeclaredMetrics {
  std::vector<DeclaredMetric> end_to_end;
  std::vector<DeclaredMetric> per_layer;
};

/// Reads the `end_to_end` and `per_layer` lists of a BENCHMARK.json;
/// throws when the file is missing or malformed.
DeclaredMetrics load_declared_metrics(const std::filesystem::path& path);

/// Empty when `metrics` holds exactly the `declared` names, in order, with
/// the declared units; otherwise the first difference.
std::string compare_with_declared(const MetricSet& metrics,
                                  const std::vector<DeclaredMetric>& declared);

/// Human-readable table, one metric per line with unit and note.
void print_table(const std::string& title, const MetricSet& metrics);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

/// In-memory span recorder.  Spans nest through an open-span stack; each
/// carries the request or unit id it belongs to.  Nothing is written until
/// write_jsonl() at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<call>", e.g. "analysis.wp"
    std::uint64_t id = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for roots
    double start = 0.0;        ///< seconds since the tracer was created
    double end = 0.0;
  };

  Tracer();
  std::size_t open(std::string name, std::uint64_t id);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Total duration of every span called `name`.
  double total(std::string_view name) const;
  /// Self time (duration minus direct children) summed per layer, the
  /// name's part before the first '.'.
  std::map<std::string, double> self_time_by_layer() const;
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced passes).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string name, std::uint64_t id);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_ = 0;
};

/// Difference of two telemetry snapshots.
class TelemetryDelta {
 public:
  TelemetryDelta(const mcs::support::telemetry::Snapshot& before,
                 const mcs::support::telemetry::Snapshot& after);
  double counter(const std::string& name) const;
  double timer_seconds(const std::string& name) const;
  double histogram_sum(const std::string& name) const;
  double histogram_count(const std::string& name) const;

 private:
  mcs::support::telemetry::Snapshot before_;
  mcs::support::telemetry::Snapshot after_;
};

/// Machine-speed probe.  The shared machine's throughput drifts by tens of
/// percent over seconds (a fixed CPU loop alone spreads by ~20% between
/// runs), which would swamp any change the benchmark is meant to see.  The
/// probe is a fixed, benchmark-owned loop (table lookups, integer and
/// floating-point work; no program code) sampled between units of work.  A
/// unit's time is scaled by kReferenceSeconds over the median probe time
/// around it, so every reported time reads as seconds on a machine where
/// the probe takes kReferenceSeconds.
class SpeedProbe {
 public:
  /// Probe time on the reference machine (a 4-vCPU 2.0 GHz Xeon VM).
  static constexpr double kReferenceSeconds = 1.0e-3;

  SpeedProbe();
  /// Runs the probe once and records its duration.
  void sample();
  /// Samples unless a sample was taken within the last kMinGap.
  void sample_if_due();
  /// kReferenceSeconds over the median probe within kWindow of [from, to]
  /// (the three nearest probes when fewer lie inside).
  double speed_factor(Clock::time_point from, Clock::time_point to) const;
  /// Duration of [from, to], less any probe run inside it, scaled to
  /// reference speed.
  double normalize(Clock::time_point from, Clock::time_point to) const;
  /// Total time spent probing so far.
  double probe_seconds() const noexcept { return total_; }

  /// While alive, probes every kBackgroundPeriod from a second thread
  /// pinned, with the calling thread, to the CPU the caller runs on — so
  /// one long call (a multi-second analysis) gets samples from inside its
  /// own interval.  The samples join the probe's when the scope ends.
  class Background {
   public:
    explicit Background(SpeedProbe& probe);
    ~Background();
    Background(const Background&) = delete;
    Background& operator=(const Background&) = delete;

   private:
    struct State;
    SpeedProbe& probe_;
    std::unique_ptr<State> state_;
  };

 private:
  using Sample = std::pair<Clock::time_point, double>;
  Sample run_loop(std::vector<std::uint32_t>& table) const;

  std::vector<std::uint32_t> table_;
  std::vector<Sample> samples_;  ///< (start, seconds), in start order
  double total_ = 0.0;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Runs `argv` with `env_overrides` added to the environment, stdout to
/// `stdout_path` and stderr to `stderr_path`, in `cwd` unless it is empty;
/// returns the exit status (or -1 when the child could not start or was
/// killed).  Never used inside a timed region.
int run_process(const std::vector<std::string>& argv,
                const std::vector<std::pair<std::string, std::string>>&
                    env_overrides,
                const std::filesystem::path& stdout_path,
                const std::filesystem::path& stderr_path,
                const std::filesystem::path& cwd = {});

std::string read_file(const std::filesystem::path& path);
void write_file(const std::filesystem::path& path, const std::string& text);

}  // namespace perfbench
