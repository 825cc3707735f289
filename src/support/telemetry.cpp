#include "support/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mcs::support::telemetry {

namespace {

// Geometric buckets with ratio 2^(1/4) spanning [kHistOrigin, ~5e9 * origin
// * 2^(kHistBuckets/4)].  256 buckets cover ~19 decades starting at 1e-9 —
// ample for both second-scale timers and count-scale samples.
constexpr std::size_t kHistBuckets = 256;
constexpr double kHistOrigin = 1e-9;

std::size_t bucket_index(double value) noexcept {
  if (!(value > kHistOrigin)) return 0;
  const double pos = std::log2(value / kHistOrigin) * 4.0;
  const auto idx = static_cast<long>(pos);  // pos >= 0 here
  return std::min<std::size_t>(static_cast<std::size_t>(idx),
                               kHistBuckets - 1);
}

/// Upper bound of bucket `i` (used as the percentile estimate).
double bucket_upper(std::size_t i) noexcept {
  return kHistOrigin * std::exp2(static_cast<double>(i + 1) / 4.0);
}

struct TimerAcc {
  std::uint64_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double seconds) noexcept {
    if (count == 0) {
      min = max = seconds;
    } else {
      min = std::min(min, seconds);
      max = std::max(max, seconds);
    }
    ++count;
    total += seconds;
  }

  void merge(const TimerAcc& other) noexcept {
    if (other.count == 0) return;
    if (count == 0) {
      min = other.min;
      max = other.max;
    } else {
      min = std::min(min, other.min);
      max = std::max(max, other.max);
    }
    count += other.count;
    total += other.total;
  }
};

struct HistAcc {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  void add(double value) noexcept {
    if (count == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    ++count;
    sum += value;
    ++buckets[bucket_index(value)];
  }

  void merge(const HistAcc& other) noexcept {
    if (other.count == 0) return;
    if (count == 0) {
      min = other.min;
      max = other.max;
    } else {
      min = std::min(min, other.min);
      max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      buckets[i] += other.buckets[i];
    }
  }

  /// Quantile estimate: upper bound of the bucket holding the q-th sample,
  /// clamped to the exact extrema.
  double quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      seen += buckets[i];
      if (seen >= std::max<std::uint64_t>(target, 1)) {
        return std::clamp(bucket_upper(i), min, max);
      }
    }
    return max;
  }
};

/// One thread's private slice of the registry.  The shard mutex is
/// uncontended on the hot path (only the owner writes; scrapes are rare).
struct Shard {
  std::mutex mu;
  std::unordered_map<std::string, std::uint64_t> counters;
  std::unordered_map<std::string, TimerAcc> timers;
  std::unordered_map<std::string, HistAcc> hists;

  /// Adds `other`'s values; the caller holds both shards' mutexes.
  void merge(const Shard& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (const auto& [name, acc] : other.timers) timers[name].merge(acc);
    for (const auto& [name, acc] : other.hists) hists[name].merge(acc);
  }
};

class Registry {
 public:
  std::shared_ptr<Shard> make_shard() {
    auto shard = std::make_shared<Shard>();
    std::lock_guard lock(mu_);
    shards_.push_back(shard);
    return shard;
  }

  /// Folds the shard of an exiting thread into `retired_` and forgets it,
  /// so threads that come and go (an admission service starts a request
  /// thread for every thread that calls it) leave no shard behind.
  void retire(const std::shared_ptr<Shard>& shard) {
    std::lock_guard lock(mu_);
    {
      std::scoped_lock both(shard->mu, retired_->mu);
      retired_->merge(*shard);
    }
    shards_.erase(std::find(shards_.begin(), shards_.end(), shard));
  }

  Snapshot scrape() {
    // The registry lock is held throughout, so a retire() cannot move a
    // shard's values into retired_ between the two being read.  Writers
    // only take their own shard's lock, never this one.
    std::lock_guard registry_lock(mu_);
    Snapshot snap;
    std::unordered_map<std::string, HistAcc> merged_hists;
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mu);
      for (const auto& [name, value] : shard->counters) {
        snap.counters[name] += value;
      }
      for (const auto& [name, acc] : shard->timers) {
        TimerStat& t = snap.timers[name];
        if (t.count == 0) {
          t.min_seconds = acc.min;
          t.max_seconds = acc.max;
        } else {
          t.min_seconds = std::min(t.min_seconds, acc.min);
          t.max_seconds = std::max(t.max_seconds, acc.max);
        }
        t.count += acc.count;
        t.total_seconds += acc.total;
      }
      for (const auto& [name, acc] : shard->hists) {
        merged_hists[name].merge(acc);
      }
    }
    for (const auto& [name, acc] : merged_hists) {
      HistogramStat h;
      h.count = acc.count;
      h.sum = acc.sum;
      h.min = acc.min;
      h.max = acc.max;
      h.p50 = acc.quantile(0.50);
      h.p90 = acc.quantile(0.90);
      h.p99 = acc.quantile(0.99);
      snap.histograms[name] = h;
    }
    return snap;
  }

  void clear() {
    std::lock_guard registry_lock(mu_);
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mu);
      shard->counters.clear();
      shard->timers.clear();
      shard->hists.clear();
    }
  }

 private:
  std::mutex mu_;
  /// One shard per live thread that has recorded anything, plus
  /// `retired_`, which holds the values of every thread that has exited.
  std::shared_ptr<Shard> retired_ = std::make_shared<Shard>();
  std::vector<std::shared_ptr<Shard>> shards_{retired_};
};

Registry& registry() {
  // Leaked singleton: scrapes may run during static destruction of other
  // translation units; never destroy the registry.
  static Registry* instance = new Registry;
  return *instance;
}

/// A thread's shard, retired when the thread exits.
struct LocalShard {
  std::shared_ptr<Shard> shard = registry().make_shard();
  LocalShard() = default;
  LocalShard(const LocalShard&) = delete;
  LocalShard& operator=(const LocalShard&) = delete;
  ~LocalShard() {
    try {
      registry().retire(shard);
    } catch (...) {
      // Merging allocates; on failure the shard simply stays registered.
    }
  }
};

Shard& local_shard() {
  thread_local LocalShard local;
  return *local.shard;
}

// -1 = not yet read from the environment.
std::atomic<int> g_enabled{-1};

}  // namespace

bool enabled() noexcept {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    const char* env = std::getenv("MCS_TELEMETRY");
    state = (env != nullptr && env[0] == '0' && env[1] == '\0') ? 0 : 1;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void count(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mu);
  shard.counters[std::string(name)] += delta;
}

void record(std::string_view name, double value) {
  if (!enabled()) return;
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mu);
  shard.hists[std::string(name)].add(value);
}

void add_time(std::string_view name, double seconds) {
  if (!enabled()) return;
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mu);
  shard.timers[std::string(name)].add(seconds);
}

Snapshot snapshot() { return registry().scrape(); }

void reset() { registry().clear(); }

ScopedTimer::ScopedTimer(const char* name) noexcept
    : name_(name), armed_(enabled()) {
  if (armed_) {
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedTimer::~ScopedTimer() {
  if (!armed_) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  try {
    add_time(name_, std::chrono::duration<double>(elapsed).count());
  } catch (...) {
    // add_time allocates; an OOM during unwinding must not terminate the
    // process over a telemetry sample.
  }
}

}  // namespace mcs::support::telemetry
