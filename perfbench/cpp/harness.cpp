#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/response_time.hpp"
#include "support/stats.hpp"
#include "svc/json.hpp"

extern char** environ;

namespace perfbench {

namespace telemetry = mcs::support::telemetry;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  return mcs::support::percentile(std::move(samples), q);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

std::string describe_percentile(std::size_t n, double q) {
  std::ostringstream out;
  out << "p" << q * 100.0 << " (n=" << n << ", ";
  const std::size_t beyond = samples_beyond(n, q);
  if (beyond < 10) out << "under-sampled: ";
  out << beyond << " beyond; highest supported ";
  const double best = highest_supported_percentile(n);
  if (best > 0.0) {
    out << "p" << best * 100.0 << ")";
  } else {
    out << "none)";
  }
  return out.str();
}

LatencyClass classify_response(std::string_view response) {
  const mcs::svc::Json parsed = mcs::svc::parse_json(response);
  const mcs::svc::Json* verdict = parsed.find("verdict");
  if (verdict == nullptr || !verdict->is_object()) return LatencyClass::kNone;
  const auto flag = [verdict](const char* key) {
    const mcs::svc::Json* f = verdict->find(key);
    return f != nullptr && f->is_bool() && f->as_bool();
  };
  if (flag("cached")) return LatencyClass::kHit;
  if (flag("degraded")) return LatencyClass::kDegraded;
  return LatencyClass::kCold;
}

std::string strip_cached(std::string response) {
  for (const std::string needle : {",\"cached\":true", ",\"cached\":false"}) {
    for (std::size_t at = response.find(needle); at != std::string::npos;
         at = response.find(needle, at)) {
      response.erase(at, needle.size());
    }
  }
  return response;
}

bool is_known_flip(const std::string& ours, const std::string& theirs) {
  static const std::regex kRelaxation("\"relaxation\":(true|false)");
  static const std::regex kWcrt("\"wcrt\":(-?[0-9]+)");
  // The admission service analyzes with the default options.
  static const double kGap = mcs::analysis::AnalysisOptions{}.milp.relative_gap;
  const auto skeleton = [](const std::string& response,
                           std::vector<long long>& wcrt) {
    const std::string text = strip_cached(response);
    for (std::sregex_iterator it(text.begin(), text.end(), kWcrt), end;
         it != end; ++it) {
      wcrt.push_back(std::stoll((*it)[1].str()));
    }
    return std::regex_replace(
        std::regex_replace(text, kWcrt, "\"wcrt\":#"), kRelaxation,
        "\"relaxation\":#");
  };
  std::vector<long long> a;
  std::vector<long long> b;
  if (skeleton(ours, a) != skeleton(theirs, b) || a.size() != b.size()) {
    return false;
  }
  const bool relaxed =
      ours.find("\"relaxation\":true") != std::string::npos ||
      theirs.find("\"relaxation\":true") != std::string::npos;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double within =
        relaxed ? std::max(1.0, std::ceil(kGap * static_cast<double>(
                                                     std::max(a[i], b[i]))))
                : 1.0;
    if (static_cast<double>(std::llabs(a[i] - b[i])) > within) return false;
  }
  return true;
}

std::string Ratio::describe() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4) << value() << " (= "
      << std::defaultfloat << std::setprecision(10) << numerator << " / "
      << denominator << ")";
  return out.str();
}

void MetricSet::add(std::string name, double value, std::string unit,
                    std::string note) {
  items_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

double MetricSet::value(std::string_view name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + std::string(name));
}

DeclaredMetrics load_declared_metrics(const std::filesystem::path& path) {
  const mcs::svc::Json spec = mcs::svc::parse_json(read_file(path));
  const auto list = [&spec, &path](const char* key) {
    const mcs::svc::Json* entries = spec.find(key);
    if (entries == nullptr || !entries->is_array()) {
      throw std::runtime_error(path.string() + " has no list '" + key + "'");
    }
    std::vector<DeclaredMetric> out;
    for (const mcs::svc::Json& e : entries->as_array()) {
      const mcs::svc::Json* name = e.find("name");
      const mcs::svc::Json* unit = e.find("unit");
      if (name == nullptr || unit == nullptr) {
        throw std::runtime_error(path.string() + ": an entry of '" + key +
                                 "' lacks a name or unit");
      }
      out.push_back({name->as_string(), unit->as_string()});
    }
    return out;
  };
  return {list("end_to_end"), list("per_layer")};
}

std::string compare_with_declared(
    const MetricSet& metrics, const std::vector<DeclaredMetric>& declared) {
  const std::vector<Metric>& items = metrics.items();
  for (std::size_t i = 0; i < std::max(items.size(), declared.size()); ++i) {
    if (i >= items.size()) return "missing metric " + declared[i].name;
    if (i >= declared.size()) return "undeclared metric " + items[i].name;
    if (items[i].name != declared[i].name ||
        items[i].unit != declared[i].unit) {
      return "metric " + std::to_string(i) + " is " + items[i].name + " [" +
             items[i].unit + "], declared " + declared[i].name + " [" +
             declared[i].unit + "]";
    }
  }
  return {};
}

void print_table(const std::string& title, const MetricSet& metrics) {
  std::cout << "== " << title << "\n";
  for (const Metric& m : metrics.items()) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(6) << m.unit << " " << m.note
              << std::right << "\n";
  }
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += mcs::svc::json_escape(m.name);
    out += "\": {\"value\": ";
    out += number(m.value);
    out += ", \"unit\": \"";
    out += mcs::svc::json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::size_t Tracer::open(std::string name, std::uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.start = seconds_since(origin_);
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end = seconds_since(origin_);
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start\":" << number(s.start)
        << ",\"end\":" << number(s.end) << "}\n";
  }
}

SpanGuard::SpanGuard(Tracer* tracer, std::string name, std::uint64_t id)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(std::move(name), id);
}

SpanGuard::~SpanGuard() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

TelemetryDelta::TelemetryDelta(const telemetry::Snapshot& before,
                               const telemetry::Snapshot& after)
    : before_(before), after_(after) {}

double TelemetryDelta::counter(const std::string& name) const {
  const auto get = [&name](const telemetry::Snapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(after_) - get(before_);
}

double TelemetryDelta::timer_seconds(const std::string& name) const {
  const auto get = [&name](const telemetry::Snapshot& s) {
    const auto it = s.timers.find(name);
    return it == s.timers.end() ? 0.0 : it->second.total_seconds;
  };
  return get(after_) - get(before_);
}

double TelemetryDelta::histogram_sum(const std::string& name) const {
  const auto get = [&name](const telemetry::Snapshot& s) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return get(after_) - get(before_);
}

double TelemetryDelta::histogram_count(const std::string& name) const {
  const auto get = [&name](const telemetry::Snapshot& s) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0
                                    : static_cast<double>(it->second.count);
  };
  return get(after_) - get(before_);
}

namespace {

constexpr auto kMinGap = std::chrono::milliseconds(20);
constexpr auto kWindow = std::chrono::milliseconds(250);
constexpr auto kBackgroundPeriod = std::chrono::milliseconds(50);
constexpr int kProbeIterations = 100000;
/// Far above the kMinGap-spaced samples of a three-minute run.
constexpr std::size_t kReservedSamples = 1u << 16;
volatile double g_probe_sink = 0.0;

std::vector<std::uint32_t> probe_table() {
  std::vector<std::uint32_t> table(1u << 16);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  return table;
}

}  // namespace

SpeedProbe::SpeedProbe() : table_(probe_table()) {
  // Sampling never allocates, so how often it runs cannot change what the
  // heap holds when the program runs (see admit-session's checked pass).
  samples_.reserve(kReservedSamples);
}

SpeedProbe::Sample SpeedProbe::run_loop(
    std::vector<std::uint32_t>& table) const {
  const Clock::time_point t0 = Clock::now();
  std::uint32_t x = 1;
  double acc = 0.0;
  for (int i = 0; i < kProbeIterations; ++i) {
    x = x * 1664525u + 1013904223u;
    const std::uint32_t v = table[x & 0xffffu];
    acc += (v & 1u) != 0 ? v * 0.5 : -static_cast<double>(v) * 0.25;
    if (acc > 1e12) acc = 0.0;
    table[(x >> 7) & 0xffffu] ^= v >> 3;
  }
  g_probe_sink = acc;
  return {t0, seconds_since(t0)};
}

void SpeedProbe::sample() {
  samples_.push_back(run_loop(table_));
  total_ += samples_.back().second;
}

void SpeedProbe::sample_if_due() {
  if (samples_.empty() || Clock::now() - samples_.back().first >= kMinGap) {
    sample();
  }
}

double SpeedProbe::speed_factor(Clock::time_point from,
                                Clock::time_point to) const {
  if (samples_.empty()) return 1.0;
  std::vector<double> near;
  for (const auto& [at, seconds] : samples_) {
    if (at >= from - kWindow && at <= to + kWindow) near.push_back(seconds);
  }
  if (near.size() < 3) {
    std::vector<std::pair<double, double>> by_distance;
    for (const auto& [at, seconds] : samples_) {
      const Clock::time_point edge = at < from ? from : (at > to ? to : at);
      by_distance.emplace_back(std::abs(seconds_between(at, edge)), seconds);
    }
    std::sort(by_distance.begin(), by_distance.end());
    near.clear();
    for (std::size_t i = 0; i < by_distance.size() && i < 3; ++i) {
      near.push_back(by_distance[i].second);
    }
  }
  return kReferenceSeconds / median(near);
}

double SpeedProbe::normalize(Clock::time_point from,
                             Clock::time_point to) const {
  double probing = 0.0;  // background probes that ran inside the interval
  for (const auto& [at, seconds] : samples_) {
    const auto end = at + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    const auto lo = std::max(at, from);
    const auto hi = std::min(end, to);
    if (hi > lo) probing += seconds_between(lo, hi);
  }
  return (seconds_between(from, to) - probing) * speed_factor(from, to);
}

struct SpeedProbe::Background::State {
  std::mutex mu;
  std::condition_variable wake;
  bool stop = false;
  std::vector<Sample> samples;
  std::thread thread;
  cpu_set_t saved{};
};

SpeedProbe::Background::Background(SpeedProbe& probe)
    : probe_(probe), state_(std::make_unique<State>()) {
  State& st = *state_;
  sched_getaffinity(0, sizeof st.saved, &st.saved);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(sched_getcpu()), &one);
  sched_setaffinity(0, sizeof one, &one);
  st.thread = std::thread([this, one] {
    State& s = *state_;
    sched_setaffinity(0, sizeof one, &one);
    std::vector<std::uint32_t> table = probe_table();
    std::unique_lock<std::mutex> lock(s.mu);
    while (!s.wake.wait_for(lock, kBackgroundPeriod, [&s] { return s.stop; })) {
      lock.unlock();
      const Sample sample = probe_.run_loop(table);
      lock.lock();
      s.samples.push_back(sample);
    }
  });
}

SpeedProbe::Background::~Background() {
  State& st = *state_;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    st.stop = true;
  }
  st.wake.notify_all();
  st.thread.join();
  sched_setaffinity(0, sizeof st.saved, &st.saved);
  for (const Sample& sample : st.samples) {
    probe_.samples_.push_back(sample);
    probe_.total_ += sample.second;
  }
  std::sort(probe_.samples_.begin(), probe_.samples_.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

int run_process(const std::vector<std::string>& argv,
                const std::vector<std::pair<std::string, std::string>>&
                    env_overrides,
                const std::filesystem::path& stdout_path,
                const std::filesystem::path& stderr_path,
                const std::filesystem::path& cwd) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string key = entry.substr(0, entry.find('='));
    const bool overridden = std::any_of(
        env_overrides.begin(), env_overrides.end(),
        [&key](const auto& kv) { return kv.first == key; });
    if (!overridden) env_strings.push_back(entry);
  }
  for (const auto& [key, value] : env_overrides) {
    env_strings.push_back(key + "=" + value);
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  args[0] = std::filesystem::absolute(args[0]).string();
  std::vector<char*> argp;
  for (std::string& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (!cwd.empty()) posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argp[0], &actions, nullptr, argp.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << text;
}

}  // namespace perfbench
