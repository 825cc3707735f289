// Unit tests for the admission-control service's building blocks:
// canonical task-set fingerprints (svc/fingerprint.hpp), the LRU verdict
// cache (svc/cache.hpp), and the crash-safe JSONL request log
// (svc/request_log.hpp).  The JSON layer's tests live in
// test_support_json.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rt/task.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/request_log.hpp"

using namespace mcs;

namespace {

rt::Task make_task(const std::string& name, rt::Priority prio,
                   rt::Time exec = 100, rt::Time copy = 20,
                   rt::Time period = 1000, rt::Time deadline = 900,
                   bool ls = false) {
  rt::Task t;
  t.name = name;
  t.exec = exec;
  t.copy_in = copy;
  t.copy_out = copy;
  t.period = period;
  t.deadline = deadline;
  t.priority = prio;
  t.latency_sensitive = ls;
  return t;
}

svc::Verdict make_verdict(bool schedulable, rt::Time wcrt) {
  svc::Verdict v;
  v.schedulable = schedulable;
  v.names = {"a"};
  v.wcrt = {wcrt};
  v.ls = {false};
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fingerprints

TEST(SvcFingerprint, InvariantUnderTaskReordering) {
  const rt::TaskSet forward({make_task("a", 0), make_task("b", 1, 50)});
  const rt::TaskSet backward({make_task("b", 1, 50), make_task("a", 0)});
  for (const auto mode :
       {svc::AnalysisMode::kGreedy, svc::AnalysisMode::kMarked,
        svc::AnalysisMode::kWp}) {
    EXPECT_EQ(svc::fingerprint(forward, mode),
              svc::fingerprint(backward, mode));
  }
}

TEST(SvcFingerprint, GreedyAndWpNormalizeLsMarks) {
  const rt::TaskSet unmarked({make_task("a", 0), make_task("b", 1)});
  const rt::TaskSet marked(
      {make_task("a", 0, 100, 20, 1000, 900, /*ls=*/true), make_task("b", 1)});
  EXPECT_EQ(svc::fingerprint(unmarked, svc::AnalysisMode::kGreedy),
            svc::fingerprint(marked, svc::AnalysisMode::kGreedy));
  EXPECT_EQ(svc::fingerprint(unmarked, svc::AnalysisMode::kWp),
            svc::fingerprint(marked, svc::AnalysisMode::kWp));
  EXPECT_NE(svc::fingerprint(unmarked, svc::AnalysisMode::kMarked),
            svc::fingerprint(marked, svc::AnalysisMode::kMarked));
}

TEST(SvcFingerprint, SensitiveToEveryAnalyzedParameter) {
  const rt::TaskSet base({make_task("a", 0)});
  const std::uint64_t fp = svc::fingerprint(base, svc::AnalysisMode::kGreedy);
  const rt::TaskSet renamed({make_task("b", 0)});
  const rt::TaskSet exec({make_task("a", 0, 101)});
  const rt::TaskSet copy({make_task("a", 0, 100, 21)});
  const rt::TaskSet period({make_task("a", 0, 100, 20, 1001)});
  const rt::TaskSet deadline({make_task("a", 0, 100, 20, 1000, 901)});
  const rt::TaskSet prio({make_task("a", 7)});
  for (const rt::TaskSet* variant :
       {&renamed, &exec, &copy, &period, &deadline, &prio}) {
    EXPECT_NE(svc::fingerprint(*variant, svc::AnalysisMode::kGreedy), fp);
  }
}

TEST(SvcFingerprint, ModesDoNotAlias) {
  const rt::TaskSet set({make_task("a", 0)});
  const std::uint64_t greedy =
      svc::fingerprint(set, svc::AnalysisMode::kGreedy);
  const std::uint64_t marked =
      svc::fingerprint(set, svc::AnalysisMode::kMarked);
  const std::uint64_t wp = svc::fingerprint(set, svc::AnalysisMode::kWp);
  EXPECT_NE(greedy, marked);
  EXPECT_NE(greedy, wp);
  EXPECT_NE(marked, wp);
}

TEST(SvcFingerprint, CanonicalOrderSortsByPriority) {
  const rt::TaskSet set(
      {make_task("low", 5), make_task("high", 1), make_task("mid", 3)});
  const std::vector<rt::TaskIndex> order = svc::canonical_order(set);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(set[order[0]].name, "high");
  EXPECT_EQ(set[order[1]].name, "mid");
  EXPECT_EQ(set[order[2]].name, "low");
}

// ---------------------------------------------------------------------------
// Verdict cache

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  svc::VerdictCache cache(2);
  EXPECT_FALSE(cache.insert(1, make_verdict(true, 10)));
  EXPECT_FALSE(cache.insert(2, make_verdict(true, 20)));
  EXPECT_TRUE(cache.insert(3, make_verdict(true, 30)));  // evicts 1
  EXPECT_FALSE(cache.lookup(1).has_value());
  ASSERT_TRUE(cache.lookup(2).has_value());
  ASSERT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.lookup(3)->wcrt[0], 30);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SvcCache, LookupRefreshesRecency) {
  svc::VerdictCache cache(2);
  cache.insert(1, make_verdict(true, 10));
  cache.insert(2, make_verdict(true, 20));
  ASSERT_TRUE(cache.lookup(1).has_value());  // 2 is now LRU
  cache.insert(3, make_verdict(true, 30));   // evicts 2
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST(SvcCache, ReinsertRefreshesInPlace) {
  svc::VerdictCache cache(2);
  cache.insert(1, make_verdict(true, 10));
  cache.insert(2, make_verdict(true, 20));
  EXPECT_FALSE(cache.insert(1, make_verdict(false, 11)));  // refresh, no evict
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(1)->schedulable);
  cache.insert(3, make_verdict(true, 30));  // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
}

TEST(SvcCache, CapacityZeroDisablesCaching) {
  svc::VerdictCache cache(0);
  EXPECT_FALSE(cache.insert(1, make_verdict(true, 10)));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Request log

TEST(SvcRequestLog, RoundTripsRecords) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "svc_log_roundtrip.jsonl";
  std::filesystem::remove(path);
  {
    svc::RequestLogWriter writer(path, /*truncate=*/true);
    EXPECT_EQ(writer.append("{\"op\":\"status\"}", "{\"ok\":true}"), 0u);
    EXPECT_EQ(writer.append("{\"op\":\"x\",\"s\":\"a\\nb\"}",
                            "{\"ok\":false}"),
              1u);
  }
  const svc::RequestLogContents contents = svc::read_request_log(path);
  EXPECT_TRUE(contents.has_header);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].seq, 0u);
  EXPECT_EQ(contents.records[0].request, "{\"op\":\"status\"}");
  EXPECT_EQ(contents.records[0].response, "{\"ok\":true}");
  EXPECT_EQ(contents.records[1].request, "{\"op\":\"x\",\"s\":\"a\\nb\"}");
  std::filesystem::remove(path);
}

TEST(SvcRequestLog, DropsTornTrailingLine) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "svc_log_torn.jsonl";
  std::filesystem::remove(path);
  {
    svc::RequestLogWriter writer(path, true);
    writer.append("{\"op\":\"status\"}", "{\"ok\":true}");
  }
  {
    // Simulate a SIGKILL landing mid-write: a partial, unterminated line.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"seq\":1,\"request\":\"{\\\"op";
  }
  const svc::RequestLogContents contents = svc::read_request_log(path);
  EXPECT_TRUE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].seq, 0u);
  std::filesystem::remove(path);
}

TEST(SvcRequestLog, ReopenAppendsWithoutSecondHeader) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "svc_log_reopen.jsonl";
  std::filesystem::remove(path);
  {
    svc::RequestLogWriter writer(path, true);
    writer.append("{\"op\":\"a\"}", "{\"ok\":true}");
  }
  {
    // Restarted process: appends to the same file, seq resets to 0 (the
    // restart marker mcs_cli --verify-log keys on).
    svc::RequestLogWriter writer(path, false);
    EXPECT_EQ(writer.append("{\"op\":\"b\"}", "{\"ok\":true}"), 0u);
  }
  const svc::RequestLogContents contents = svc::read_request_log(path);
  EXPECT_TRUE(contents.has_header);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].seq, 0u);
  EXPECT_EQ(contents.records[1].seq, 0u);
  std::filesystem::remove(path);
}

TEST(SvcRequestLog, ReopenAfterTornLineAppendsCleanly) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "svc_log_torn_reopen.jsonl";
  std::filesystem::remove(path);
  {
    svc::RequestLogWriter writer(path, true);
    writer.append("{\"op\":\"a\"}", "{\"ok\":true}");
  }
  {
    // SIGKILL mid-write, then a restart on the same log.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"seq\":1,\"request\":\"{\\\"op";
  }
  {
    svc::RequestLogWriter writer(path, false);
    writer.append("{\"op\":\"b\"}", "{\"ok\":true}");
  }
  svc::RequestLogContents contents;
  ASSERT_NO_THROW(contents = svc::read_request_log(path));
  EXPECT_TRUE(contents.has_header);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].request, "{\"op\":\"a\"}");
  EXPECT_EQ(contents.records[1].request, "{\"op\":\"b\"}");
  std::filesystem::remove(path);
}

TEST(SvcRequestLog, MissingFileYieldsEmptyContents) {
  const svc::RequestLogContents contents = svc::read_request_log(
      std::filesystem::path(::testing::TempDir()) / "svc_log_nonexistent");
  EXPECT_FALSE(contents.has_header);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_FALSE(contents.truncated_tail);
}

TEST(SvcRequestLog, MalformedCompleteLineThrows) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "svc_log_malformed.jsonl";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "{\"seq\":0,\"request\":\"x\",\"response\":\"y\"}\n";
    out << "not json at all\n";
  }
  EXPECT_THROW(svc::read_request_log(path), std::runtime_error);
  std::filesystem::remove(path);
}
