// Pieces every workload shares: run configuration, the pass loop, the
// end-to-end and per-layer metric sets, the simulation soundness check and
// the final-window replays.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/response_time.hpp"
#include "harness.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace rt = mcs::rt;
namespace sim = mcs::sim;
namespace analysis = mcs::analysis;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path root;     ///< checkout root (holds workloads/)
  std::filesystem::path workdir;  ///< this run's scratch files
  std::filesystem::path mcs_bench;
  std::filesystem::path mcs_cli;
  DeclaredMetrics declared;  ///< BENCHMARK.json's metric lists
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
};

/// Outputs of one timed pass that feed the end-to-end metrics.  Times are
/// normalized to reference machine speed (SpeedProbe).
struct PassSummary {
  double wall_s = 0.0;
  double raw_wall_s = 0.0;  ///< as the clock read it
  double verdicts = 0.0;
  std::vector<double> unit_seconds;  ///< one latency per unit
};

/// Runs `pass` at least once and again while another pass of the last
/// pass's raw length still fits in `seconds`.
std::vector<PassSummary> run_passes(double seconds,
                                    const std::function<PassSummary()>& pass);

/// Set-up is repeated at least kMinSetups times and for at least
/// kMinSetupSeconds (at most kMaxSetups times): a set-up of a fraction of
/// a millisecond measured within a few milliseconds would carry the
/// machine's state of that instant.
constexpr std::size_t kMinSetups = 51;
constexpr std::size_t kMaxSetups = 20000;
constexpr double kMinSetupSeconds = 0.5;

/// Median normalized time of repeated calls to `setup`.
double median_setup_seconds(SpeedProbe& probe,
                            const std::function<void()>& setup);

/// Quality outputs of a workload: schedulable share and WCRT/D.
struct Quality {
  Ratio sched;  ///< schedulable verdicts / verdicts considered
  /// Sum of WCRT/D over bounds that meet their deadline / their count.
  Ratio wcrt_ratio;
  void add_bounds(const rt::TaskSet& tasks, const std::vector<rt::Time>& wcrt);
};

/// What a workload's output checks found.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when an output differs from its reference front end (beyond a
  /// documented, bounded program defect) or a reference could not run.
  bool correct = true;
  Quality quality;
};

/// The end-to-end metric set, in BENCHMARK.json order.
MetricSet end_to_end_metrics(double setup_s,
                             const std::vector<PassSummary>& passes,
                             double peak_rss, const Ratio& ok_share,
                             const Quality& quality,
                             const std::string& unit_label);

/// A timed run's result: the end-to-end metrics and the check tally.
RunResult timed_result(double setup_s, const std::vector<PassSummary>& passes,
                       double peak_rss, const CheckTally& checks,
                       const std::string& unit_label);

/// Per-layer values keyed by name; a declared name that was never set
/// prints as 0 (the layer is idle on this workload).  Names and units come
/// from BENCHMARK.json; setting an undeclared name throws.
class LayerMetrics {
 public:
  explicit LayerMetrics(std::vector<DeclaredMetric> declared);
  void set(const std::string& name, double value, std::string note = {});
  void set_ratio(const std::string& name, const Ratio& ratio);
  /// The telemetry-derived analysis.* / lp.* / svc.* counters of a pass.
  void add_telemetry(const TelemetryDelta& delta);
  MetricSet finish() const;

 private:
  std::vector<DeclaredMetric> declared_;
  std::map<std::string, Metric> values_;
};

/// A traced run's result: the per-layer metrics and the check tally.  Also
/// prints the self time per layer and writes the spans to
/// <workdir>/spans.jsonl.
RunResult traced_result(const LayerMetrics& layers, const CheckTally& checks,
                        const Tracer& tracer,
                        const std::filesystem::path& workdir);

/// Simulates `tasks` (LS flags as analyzed) under `protocol` with
/// synchronous-periodic and seeded sporadic releases over twenty times the
/// largest period; true when every job completes, no deadline is missed
/// and every observed response time is at or below `wcrt`.
bool simulate_within_bounds(const rt::TaskSet& tasks, sim::Protocol protocol,
                            const std::vector<rt::Time>& wcrt,
                            std::uint64_t seed, std::string* why);

/// One analyzed task set whose final windows are re-solved by the replay.
struct ReplayInput {
  rt::TaskSet tasks;  ///< LS flags as analyzed
  bool ignore_ls = false;
  std::vector<rt::Time> wcrt;
  analysis::AnalysisOptions options;
};

/// Seconds spent re-calling each public function on the final windows.
struct ReplayTimes {
  double window = 0.0;
  double build = 0.0;
  double presolve = 0.0;
  double root_lp = 0.0;
  double bb = 0.0;
};

/// Re-calls window sizing, build_delay_milp, presolve, the root LP and
/// branch and bound at each finite-bound task's final window
/// t = WCRT - C - u.  Telemetry must be off while it runs.
ReplayTimes replay_final_windows(const std::vector<ReplayInput>& inputs);

void add_replay_metrics(LayerMetrics& layers, const ReplayTimes& times);

/// Median of the per-unit ratios traced[i] / untraced[i], each weighted by
/// untraced[i]: the traced pass's relative cost, with the machine's drift
/// cancelling unit by unit instead of over a whole pass.  1 when empty.
double paired_ratio(const std::vector<double>& traced,
                    const std::vector<double>& untraced);

/// trace.overhead_s: the untraced pass's normalized wall times the paired
/// ratio minus one — what tracing added to the pass.  `unit_seconds` of
/// both passes must list the same units in the same order.
void add_trace_overhead(LayerMetrics& layers, const PassSummary& traced,
                        const PassSummary& untraced);

/// `tasks` with the LS marking `flags` applied.
rt::TaskSet with_flags(rt::TaskSet tasks, const std::vector<bool>& flags);

}  // namespace perfbench
