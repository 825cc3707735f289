#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace telemetry = mcs::support::telemetry;

/// Every test starts from a clean, enabled registry (the registry is
/// process-global).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::set_enabled(true);
  }
};

TEST_F(TelemetryTest, CountersAccumulate) {
  telemetry::count("t.alpha");
  telemetry::count("t.alpha", 4);
  telemetry::count("t.beta", 2);
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.alpha"), 5u);
  EXPECT_EQ(snap.counters.at("t.beta"), 2u);
}

TEST_F(TelemetryTest, ConcurrentIncrementsFromManyThreadsSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry::count("t.concurrent");
        telemetry::record("t.concurrent_hist", 1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("t.concurrent_hist").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, ScopedTimersNest) {
  {
    const telemetry::ScopedTimer outer("t.outer");
    {
      const telemetry::ScopedTimer inner("t.inner");
      telemetry::count("t.work");
    }
    {
      const telemetry::ScopedTimer inner("t.inner");
    }
  }
  const auto snap = telemetry::snapshot();
  ASSERT_EQ(snap.timers.count("t.outer"), 1u);
  ASSERT_EQ(snap.timers.count("t.inner"), 1u);
  const auto& outer = snap.timers.at("t.outer");
  const auto& inner = snap.timers.at("t.inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  // The outer span contains both inner spans.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_GE(outer.max_seconds, outer.min_seconds);
}

TEST_F(TelemetryTest, HistogramStatsAreSane) {
  for (int i = 1; i <= 100; ++i) {
    telemetry::record("t.hist", static_cast<double>(i));
  }
  const auto snap = telemetry::snapshot();
  const auto& h = snap.histograms.at("t.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  // Geometric buckets have <= ~19% relative error; generous brackets.
  EXPECT_GE(h.p50, 35.0);
  EXPECT_LE(h.p50, 75.0);
  EXPECT_GE(h.p99, h.p90);
  EXPECT_GE(h.p90, h.p50);
  EXPECT_LE(h.p99, 100.0);
}

TEST_F(TelemetryTest, DisabledModeIsANoOp) {
  telemetry::set_enabled(false);
  EXPECT_FALSE(telemetry::enabled());
  telemetry::count("t.off");
  telemetry::record("t.off_hist", 1.0);
  telemetry::add_time("t.off_timer", 0.5);
  {
    const telemetry::ScopedTimer timer("t.off_scoped");
  }
  telemetry::set_enabled(true);
  const auto snap = telemetry::snapshot();
  EXPECT_TRUE(snap.empty());
}

TEST_F(TelemetryTest, ScopedTimerDisarmedAtConstructionStaysOff) {
  telemetry::set_enabled(false);
  {
    const telemetry::ScopedTimer timer("t.flip");
    // Re-enabling mid-span must not make the destructor record a bogus
    // sample for a timer that never read the clock.
    telemetry::set_enabled(true);
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.timers.count("t.flip"), 0u);
}

TEST_F(TelemetryTest, JsonSnapshotRoundTripsNamesAndValues) {
  telemetry::count("t.json_counter", 42);
  telemetry::add_time("t.json_timer", 1.5);
  telemetry::add_time("t.json_timer", 0.5);
  telemetry::record("t.json_hist", 3.0);

  std::ostringstream os;
  telemetry::write_json(telemetry::snapshot(), os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"schema\": \"mcs-telemetry-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"t.json_counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"t.json_timer\": {\"count\": 2, \"total_seconds\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"t.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces: crude but effective well-formedness check for the
  // fixed flat schema.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(TelemetryTest, JsonEscapesSpecialCharacters) {
  telemetry::count("t.quote\"backslash\\", 1);
  std::ostringstream os;
  telemetry::write_json(telemetry::snapshot(), os);
  EXPECT_NE(os.str().find("t.quote\\\"backslash\\\\"), std::string::npos);
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  telemetry::count("t.reset_me");
  telemetry::add_time("t.reset_timer", 0.1);
  telemetry::record("t.reset_hist", 2.0);
  telemetry::reset();
  EXPECT_TRUE(telemetry::snapshot().empty());
  // The registry keeps working after a reset.
  telemetry::count("t.after_reset");
  EXPECT_EQ(telemetry::snapshot().counters.at("t.after_reset"), 1u);
}

TEST_F(TelemetryTest, SnapshotMergesShardsOfExitedThreads) {
  std::thread worker([] { telemetry::count("t.from_worker", 7); });
  worker.join();
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.from_worker"), 7u);
}

TEST_F(TelemetryTest, ShortLivedThreadsFoldTimersAndHistogramsExactly) {
  // One thread per sample (an admission service starts a request thread
  // for every calling thread): every exited thread's values survive in
  // full, extrema included.
  constexpr int kThreads = 200;
  for (int t = 1; t <= kThreads; ++t) {
    std::thread([t] {
      telemetry::count("t.short_lived");
      telemetry::add_time("t.short_timer", 0.001 * t);
      telemetry::record("t.short_hist", static_cast<double>(t));
    }).join();
  }
  telemetry::count("t.short_lived");  // the main thread's own shard
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counters.at("t.short_lived"), kThreads + 1u);
  const auto& timer = snap.timers.at("t.short_timer");
  EXPECT_EQ(timer.count, static_cast<std::uint64_t>(kThreads));
  EXPECT_DOUBLE_EQ(timer.min_seconds, 0.001);
  EXPECT_DOUBLE_EQ(timer.max_seconds, 0.001 * kThreads);
  const auto& hist = snap.histograms.at("t.short_hist");
  EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kThreads));
  EXPECT_DOUBLE_EQ(hist.min, 1.0);
  EXPECT_DOUBLE_EQ(hist.max, static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(hist.sum, kThreads * (kThreads + 1) / 2.0);
  // A reset clears the folded values too.
  telemetry::reset();
  EXPECT_TRUE(telemetry::snapshot().empty());
}

}  // namespace
