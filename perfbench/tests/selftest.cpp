// Self-tests of the benchmark harness: the percentile rule, latency-class
// classification, the admission transcript comparison, ratios printed with
// their base, metrics checked against their declaration, span self time,
// the paired tracing overhead, the speed probe's scaling and the result
// line.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness.hpp"

namespace {

using perfbench::LatencyClass;

const std::vector<perfbench::DeclaredMetric> kLayers = {
    {"lp.warm_start_hit_ratio", "ratio"},
    {"svc.cache_hit_ratio", "ratio"},
    {"lp.bb_nodes", "count"},
};

TEST(PercentileRule, CountsSamplesBeyondTheQuantile) {
  EXPECT_EQ(perfbench::samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(perfbench::samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(perfbench::samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(5, 0.5), 2u);
}

TEST(PercentileRule, PicksTheHighestPercentileWithTenBeyond) {
  EXPECT_EQ(perfbench::highest_supported_percentile(19), 0.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(20), 0.5);
  EXPECT_EQ(perfbench::highest_supported_percentile(100), 0.9);
  EXPECT_EQ(perfbench::highest_supported_percentile(199), 0.9);
  EXPECT_EQ(perfbench::highest_supported_percentile(200), 0.95);
  EXPECT_EQ(perfbench::highest_supported_percentile(999), 0.95);
  EXPECT_EQ(perfbench::highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(perfbench::highest_supported_percentile(10000), 0.999);
}

TEST(PercentileRule, DescriptionFlagsUnderSampledPercentiles) {
  EXPECT_EQ(perfbench::describe_percentile(400, 0.95),
            "p95 (n=400, 20 beyond; highest supported p95)");
  EXPECT_EQ(perfbench::describe_percentile(12, 0.95),
            "p95 (n=12, under-sampled: 0 beyond; highest supported none)");
  EXPECT_EQ(perfbench::describe_percentile(3200, 0.99),
            "p99 (n=3200, 32 beyond; highest supported p99)");
  EXPECT_EQ(perfbench::describe_percentile(10000, 0.5),
            "p50 (n=10000, 5000 beyond; highest supported p99.9)");
}

TEST(PercentileRule, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(perfbench::percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::percentile({1, 2, 3, 4, 5}, 0.95), 4.8);
  EXPECT_DOUBLE_EQ(perfbench::percentile({}, 0.5), 0.0);
}

TEST(Classification, ReadsTheVerdictFlags) {
  const std::string hit =
      R"({"ok":true,"op":"analyze","verdict":{"schedulable":true,)"
      R"("degraded":false,"cached":true,"tasks":[]}})";
  const std::string degraded =
      R"({"ok":true,"op":"analyze","verdict":{"schedulable":false,)"
      R"("degraded":true,"cached":false,"tasks":[]}})";
  const std::string cold =
      R"({"ok":true,"op":"admit","committed":true,"verdict":)"
      R"({"schedulable":true,"degraded":false,"cached":false,"tasks":[]}})";
  EXPECT_EQ(perfbench::classify_response(hit), LatencyClass::kHit);
  EXPECT_EQ(perfbench::classify_response(degraded), LatencyClass::kDegraded);
  EXPECT_EQ(perfbench::classify_response(cold), LatencyClass::kCold);
}

TEST(Classification, ResponsesWithoutVerdictHaveNoClass) {
  EXPECT_EQ(perfbench::classify_response(
                R"({"ok":true,"op":"remove","removed":"a","tasks":[]})"),
            LatencyClass::kNone);
  EXPECT_EQ(perfbench::classify_response(
                R"({"ok":false,"error":{"code":"unknown_task"}})"),
            LatencyClass::kNone);
}

TEST(Classification, CachedWinsOverDegraded) {
  // The service never caches degraded verdicts, but if both flags were
  // set the request was still served from the cache.
  EXPECT_EQ(perfbench::classify_response(
                R"({"ok":true,"verdict":{"degraded":true,"cached":true}})"),
            LatencyClass::kHit);
}

const std::string kCold =
    R"({"ok":true,"id":7,"op":"mark_ls","mode":"marked","committed":true,)"
    R"("verdict":{"schedulable":true,"degraded":false,"relaxation":true,)"
    R"("rounds":0,"fingerprint":"17a8","cached":false,"tasks":[)"
    R"({"name":"a","wcrt":474616,"ls":true},)"
    R"({"name":"b","wcrt":794361,"ls":false}]}})";

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  text.replace(text.find(from), from.size(), to);
  return text;
}

TEST(Transcript, CachedIsTheOnlyIgnoredField) {
  EXPECT_EQ(perfbench::strip_cached(kCold),
            replace(kCold, R"(,"cached":false)", ""));
  EXPECT_EQ(perfbench::strip_cached(replace(kCold, "false,\"tasks",
                                            "true,\"tasks")),
            perfbench::strip_cached(kCold));
}

TEST(Transcript, KnownFlipIsRelaxationAndOneTick) {
  const std::string flipped = replace(
      replace(kCold, R"("relaxation":true)", R"("relaxation":false)"),
      "794361", "794360");
  EXPECT_TRUE(perfbench::is_known_flip(kCold, flipped));
  EXPECT_TRUE(perfbench::is_known_flip(
      kCold, replace(kCold, R"("relaxation":true)", R"("relaxation":false)")));
}

TEST(Transcript, RelaxedBoundsMayMoveWithinTheMilpGap) {
  // Both verdicts rest on a relaxation bound: 0.26% apart is inside the
  // analysis's 0.5% gap, 0.6% is not.
  EXPECT_TRUE(perfbench::is_known_flip(kCold, replace(kCold, "794361",
                                                      "792300")));
  EXPECT_FALSE(perfbench::is_known_flip(kCold, replace(kCold, "794361",
                                                       "789500")));
}

TEST(Transcript, AnyOtherDifferenceIsNotTheKnownFlip) {
  const std::string exact =
      replace(kCold, R"("relaxation":true)", R"("relaxation":false)");
  EXPECT_FALSE(perfbench::is_known_flip(exact, replace(exact, "794361",
                                                       "794359")));
  EXPECT_FALSE(perfbench::is_known_flip(
      kCold, replace(kCold, R"("committed":true)", R"("committed":false)")));
  EXPECT_FALSE(perfbench::is_known_flip(
      kCold, replace(kCold, R"("schedulable":true)", R"("schedulable":false)")));
  EXPECT_FALSE(perfbench::is_known_flip(kCold, replace(kCold, "17a8", "17a9")));
  EXPECT_FALSE(perfbench::is_known_flip(
      kCold, replace(kCold, R"("wcrt":474616)", R"("wcrt":null)")));
}

TEST(Ratios, ArePrintedWithTheirBase) {
  const perfbench::Ratio r{1234, 1325};
  EXPECT_EQ(r.describe(), "0.9313 (= 1234 / 1325)");
  EXPECT_EQ((perfbench::Ratio{0, 0}).describe(), "0.0000 (= 0 / 0)");
  EXPECT_EQ((perfbench::Ratio{1.5, 9}).describe(), "0.1667 (= 1.5 / 9)");
}

TEST(Ratios, EveryRatioMetricCarriesItsBase) {
  perfbench::LayerMetrics layers(kLayers);
  layers.set_ratio("lp.warm_start_hit_ratio", {3, 4});
  layers.set_ratio("svc.cache_hit_ratio", {0, 0});
  const perfbench::MetricSet set = layers.finish();
  for (const perfbench::Metric& m : set.items()) {
    if (m.unit != "ratio") continue;
    if (m.note == "idle on this workload") continue;
    EXPECT_NE(m.note.find(" / "), std::string::npos) << m.name;
  }
  EXPECT_DOUBLE_EQ(set.value("lp.warm_start_hit_ratio"), 0.75);
}

TEST(Ratios, EndToEndShareCarriesItsBase) {
  perfbench::PassSummary pass;
  pass.wall_s = 2.0;
  pass.verdicts = 10;
  pass.unit_seconds = {0.1, 0.2};
  perfbench::Quality quality;
  quality.sched = {1, 2};
  const perfbench::MetricSet set = perfbench::end_to_end_metrics(
      0.5, {pass}, 10.0, {9, 10}, quality, "unit");
  for (const perfbench::Metric& m : set.items()) {
    if (m.unit == "ratio") {
      EXPECT_NE(m.note.find(" / "), std::string::npos) << m.name;
    }
  }
  EXPECT_DOUBLE_EQ(set.value("verdicts_per_s"), 5.0);
  EXPECT_DOUBLE_EQ(set.value("ok_share"), 0.9);
}

TEST(LayerMetrics, IdleLayersPrintAsZero) {
  const perfbench::MetricSet set = perfbench::LayerMetrics(kLayers).finish();
  EXPECT_EQ(perfbench::compare_with_declared(set, kLayers), "");
  for (const perfbench::Metric& m : set.items()) EXPECT_EQ(m.value, 0.0);
}

TEST(LayerMetrics, UndeclaredNamesAreRejected) {
  perfbench::LayerMetrics layers(kLayers);
  EXPECT_THROW(layers.set("lp.bb_node", 1.0), std::logic_error);
  layers.set("lp.bb_nodes", 5.0);
  EXPECT_EQ(layers.finish().items()[2].unit, "count");
}

TEST(Declared, ComparisonNamesTheFirstDifference) {
  perfbench::MetricSet set;
  set.add("lp.warm_start_hit_ratio", 1.0, "ratio");
  set.add("svc.cache_hit_ratio", 1.0, "s");
  EXPECT_EQ(perfbench::compare_with_declared(set, kLayers),
            "metric 1 is svc.cache_hit_ratio [s], declared "
            "svc.cache_hit_ratio [ratio]");
  set = perfbench::LayerMetrics(kLayers).finish();
  set.add("extra", 0.0, "count");
  EXPECT_EQ(perfbench::compare_with_declared(set, kLayers),
            "undeclared metric extra");
}

TEST(TraceOverhead, PairedRatioIsTheTimeWeightedMedian) {
  // The 4 s unit carries most of the weight: its ratio (1.1) wins over the
  // two short units' 2.0.
  EXPECT_DOUBLE_EQ(perfbench::paired_ratio({0.2, 4.4, 0.2}, {0.1, 4.0, 0.1}),
                   1.1);
  // Equal weights: the plain median.
  EXPECT_DOUBLE_EQ(perfbench::paired_ratio({1, 3, 2}, {1, 1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::paired_ratio({}, {}), 1.0);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  perfbench::Tracer tracer;
  const std::size_t outer = tracer.open("exp.unit", 7);
  const std::size_t inner = tracer.open("analysis.wp", 7);
  tracer.close(inner);
  tracer.close(outer);
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].id, 7u);
  const auto self = tracer.self_time_by_layer();
  const double outer_total = spans[0].end - spans[0].start;
  const double inner_total = spans[1].end - spans[1].start;
  EXPECT_NEAR(self.at("exp"), outer_total - inner_total, 1e-12);
  EXPECT_NEAR(self.at("analysis"), inner_total, 1e-12);
}

TEST(SpeedProbe, ScalesByReferenceOverMedianProbe) {
  perfbench::SpeedProbe probe;
  EXPECT_EQ(probe.speed_factor(perfbench::Clock::now(),
                               perfbench::Clock::now()),
            1.0);  // nothing sampled yet: raw times pass through
  for (int i = 0; i < 5; ++i) probe.sample();
  const auto now = perfbench::Clock::now();
  const double factor = probe.speed_factor(now, now);
  EXPECT_GT(factor, 0.0);
  EXPECT_DOUBLE_EQ(probe.normalize(now, now + std::chrono::seconds(2)),
                   2.0 * factor);
  EXPECT_GT(probe.probe_seconds(), 0.0);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  perfbench::MetricSet m;
  m.add("wall_s", 1.25, "s");
  EXPECT_EQ(perfbench::result_json(true, 3, 0, m),
            R"({"correct": true, "attempted": 3, "failed": 0, )"
            R"("metrics": {"wall_s": {"value": 1.25, "unit": "s"}}})");
}

}  // namespace
