// Determinism corpus for the sweep work-queue engine (DESIGN.md §5.13).
//
// The contract under test: the CSV emitted by a sweep is byte-identical
// across thread counts, shard layouts and kill/--resume boundaries.  Plus
// the crash-safety properties of the JSONL log: partial trailing lines are
// dropped, error units are isolated, retries are bounded, and merge refuses
// foreign logs.
#include "exp/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep_log.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace {

namespace fs = std::filesystem;
using mcs::exp::aggregate_outcomes;
using mcs::exp::make_log_header;
using mcs::exp::merge_sweep_logs;
using mcs::exp::MetricSpec;
using mcs::exp::read_sweep_log;
using mcs::exp::run_sweep;
using mcs::exp::RunnerOptions;
using mcs::exp::SweepLogAppender;
using mcs::exp::SweepLogHeader;
using mcs::exp::SweepRunResult;
using mcs::exp::SweepSpec;
using mcs::exp::SweepUnit;
using mcs::exp::sweep_values_hash;
using mcs::exp::UnitOutcome;
using mcs::exp::write_sweep_csv;
using mcs::support::Rng;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A cheap deterministic sweep: metrics depend only on the unit RNG, so any
/// execution-order leak shows up as a byte diff in the CSV.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny_sweep";
  spec.title = "determinism corpus";
  spec.axis = "U";
  spec.values = {0.1, 0.4, 0.7};
  spec.slots_per_point = 8;
  spec.seed = 42;
  spec.metrics = {{"hits", MetricSpec::kRatio}, {"draws", MetricSpec::kCount}};
  spec.evaluate = [](const SweepUnit& unit, Rng& rng) {
    std::uint64_t draws = 0;
    // Consume a slot-dependent amount of the stream: a runner that shares
    // RNG state across units would desynchronize here.
    for (std::size_t i = 0; i <= unit.slot % 3; ++i) draws += rng() % 7;
    const std::uint64_t hit = (rng() % 100) < 50 ? 1u : 0u;
    return std::vector<std::uint64_t>{hit, draws};
  };
  return spec;
}

class SweepRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mcs_sweep_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string csv_of(const SweepSpec& spec, const SweepRunResult& run) {
    const fs::path path = dir_ / (spec.name + ".csv");
    write_sweep_csv(spec, aggregate_outcomes(spec, run.outcomes), path);
    return slurp(path);
  }

  fs::path dir_;
};

TEST_F(SweepRunnerTest, ByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();
  RunnerOptions one;
  one.threads = 1;
  const std::string csv1 = csv_of(spec, run_sweep(spec, one));
  ASSERT_FALSE(csv1.empty());
  for (const std::size_t threads : {2u, 5u}) {
    RunnerOptions many;
    many.threads = threads;
    EXPECT_EQ(csv_of(spec, run_sweep(spec, many)), csv1)
        << "threads=" << threads;
  }
}

TEST_F(SweepRunnerTest, ShardedRunsMergeToIdenticalBytes) {
  const SweepSpec spec = tiny_spec();
  RunnerOptions whole;
  whole.threads = 2;
  const std::string reference = csv_of(spec, run_sweep(spec, whole));

  constexpr std::size_t kShards = 4;
  std::vector<fs::path> logs;
  for (std::size_t k = 0; k < kShards; ++k) {
    RunnerOptions opt;
    opt.threads = 2;
    opt.shard_index = k;
    opt.shard_count = kShards;
    opt.log_path = dir_ / ("shard" + std::to_string(k) + ".jsonl");
    logs.push_back(opt.log_path);
    const SweepRunResult run = run_sweep(spec, opt);
    // Each shard only sees its own units.
    for (const UnitOutcome& u : run.outcomes) {
      EXPECT_EQ((u.point * spec.slots_per_point + u.slot) % kShards, k);
    }
  }

  const auto merged = merge_sweep_logs(spec, logs);
  EXPECT_EQ(merged.size(), spec.values.size() * spec.slots_per_point);
  const fs::path path = dir_ / "merged.csv";
  write_sweep_csv(spec, aggregate_outcomes(spec, merged), path);
  EXPECT_EQ(slurp(path), reference);
}

TEST_F(SweepRunnerTest, KillMidwayThenResumeMatchesUninterrupted) {
  const SweepSpec spec = tiny_spec();
  RunnerOptions uninterrupted;
  uninterrupted.threads = 2;
  uninterrupted.log_path = dir_ / "full.jsonl";
  const std::string reference = csv_of(spec, run_sweep(spec, uninterrupted));

  // "Crash" after 7 of 24 units, then resume with a different thread count.
  RunnerOptions crashed;
  crashed.threads = 1;
  crashed.log_path = dir_ / "resumed.jsonl";
  crashed.unit_limit = 7;
  const SweepRunResult partial = run_sweep(spec, crashed);
  EXPECT_EQ(partial.outcomes.size(), 7u);

  RunnerOptions resumed;
  resumed.threads = 3;
  resumed.log_path = crashed.log_path;
  resumed.resume = true;
  const SweepRunResult rest = run_sweep(spec, resumed);
  EXPECT_EQ(rest.resume_skips, 7u);
  EXPECT_EQ(rest.outcomes.size(),
            spec.values.size() * spec.slots_per_point);
  EXPECT_EQ(csv_of(spec, rest), reference);
}

TEST_F(SweepRunnerTest, ResumeWithPartialTrailingLineRecovers) {
  const SweepSpec spec = tiny_spec();
  RunnerOptions opt;
  opt.threads = 1;
  opt.log_path = dir_ / "torn.jsonl";
  opt.unit_limit = 5;
  run_sweep(spec, opt);

  // Emulate a write torn mid-line by SIGKILL: append half a record with no
  // trailing newline.
  {
    std::ofstream out(opt.log_path, std::ios::app | std::ios::binary);
    out << R"({"point":1,"slot":2,"status":"ok","atte)";
  }
  const auto contents = read_sweep_log(opt.log_path);
  EXPECT_TRUE(contents.truncated_tail);
  EXPECT_EQ(contents.units.size(), 5u);

  RunnerOptions resumed;
  resumed.threads = 2;
  resumed.log_path = opt.log_path;
  resumed.resume = true;
  const SweepRunResult run = run_sweep(spec, resumed);
  EXPECT_EQ(run.resume_skips, 5u);

  RunnerOptions uninterrupted;
  uninterrupted.threads = 1;
  EXPECT_EQ(csv_of(spec, run),
            csv_of(spec, run_sweep(spec, uninterrupted)));
}

TEST_F(SweepRunnerTest, ResumeRefusesLogFromDifferentSweep) {
  SweepSpec spec = tiny_spec();
  RunnerOptions opt;
  opt.threads = 1;
  opt.log_path = dir_ / "log.jsonl";
  run_sweep(spec, opt);

  SweepSpec other = tiny_spec();
  other.seed = 43;  // different fingerprint
  RunnerOptions resumed = opt;
  resumed.resume = true;
  EXPECT_THROW(run_sweep(other, resumed), std::runtime_error);
}

TEST_F(SweepRunnerTest, ErrorUnitIsIsolatedAndRecorded) {
  SweepSpec spec = tiny_spec();
  const auto inner = spec.evaluate;
  spec.evaluate = [inner](const SweepUnit& unit, Rng& rng) {
    if (unit.point == 1 && unit.slot == 3) {
      throw std::runtime_error("injected unit failure");
    }
    return inner(unit, rng);
  };
  RunnerOptions opt;
  opt.threads = 2;
  opt.log_path = dir_ / "err.jsonl";
  opt.max_attempts = 2;
  const SweepRunResult run = run_sweep(spec, opt);
  EXPECT_EQ(run.errors, 1u);
  EXPECT_EQ(run.retries, 1u);  // one failed attempt before the second
  EXPECT_EQ(run.outcomes.size(), spec.values.size() * spec.slots_per_point);

  const UnitOutcome* failed = nullptr;
  for (const UnitOutcome& u : run.outcomes) {
    if (!u.ok) {
      ASSERT_EQ(failed, nullptr);
      failed = &u;
    }
  }
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->point, 1u);
  EXPECT_EQ(failed->slot, 3u);
  EXPECT_EQ(failed->attempts, 2u);
  EXPECT_NE(failed->error.find("injected"), std::string::npos);

  // The error shows up in the CSV's errors column, and every other row is
  // untouched relative to a clean run.
  const auto rows = aggregate_outcomes(spec, run.outcomes);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].errors, 1u);
  EXPECT_EQ(rows[1].ok_units, spec.slots_per_point - 1);
  EXPECT_EQ(rows[0].errors, 0u);
  EXPECT_EQ(rows[2].errors, 0u);
}

TEST_F(SweepRunnerTest, FlakyUnitSucceedsOnRetryWithIdenticalBytes) {
  SweepSpec spec = tiny_spec();
  const auto inner = spec.evaluate;
  auto first_attempt = std::make_shared<std::atomic<bool>>(true);
  spec.evaluate = [inner, first_attempt](const SweepUnit& unit, Rng& rng) {
    if (unit.point == 0 && unit.slot == 0 &&
        first_attempt->exchange(false)) {
      throw std::runtime_error("transient");
    }
    return inner(unit, rng);
  };
  RunnerOptions opt;
  opt.threads = 1;
  opt.max_attempts = 3;
  const SweepRunResult run = run_sweep(spec, opt);
  EXPECT_EQ(run.errors, 0u);
  EXPECT_EQ(run.retries, 1u);
  // The retry reseeds the unit RNG from scratch, so the output is exactly
  // the clean run's bytes.
  RunnerOptions clean;
  clean.threads = 1;
  EXPECT_EQ(csv_of(tiny_spec(), run),
            csv_of(tiny_spec(), run_sweep(tiny_spec(), clean)));
}

TEST_F(SweepRunnerTest, MergeRejectsForeignAndIncompleteLogs) {
  const SweepSpec spec = tiny_spec();

  // Incomplete: a single shard's log does not cover the sweep.
  RunnerOptions opt;
  opt.threads = 1;
  opt.shard_index = 0;
  opt.shard_count = 2;
  opt.log_path = dir_ / "half.jsonl";
  run_sweep(spec, opt);
  EXPECT_THROW(merge_sweep_logs(spec, {opt.log_path}), std::runtime_error);

  // Foreign: a log from a different sweep is refused outright.
  SweepSpec other = tiny_spec();
  other.values = {0.2, 0.5, 0.8};
  RunnerOptions full;
  full.threads = 1;
  full.log_path = dir_ / "foreign.jsonl";
  run_sweep(other, full);
  EXPECT_THROW(merge_sweep_logs(spec, {full.log_path}), std::runtime_error);

  // Headerless: an empty file has no fingerprint to verify.
  const fs::path empty = dir_ / "empty.jsonl";
  std::ofstream(empty).close();
  EXPECT_THROW(merge_sweep_logs(spec, {empty}), std::runtime_error);
}

TEST_F(SweepRunnerTest, LogRoundTripPreservesOutcomes) {
  SweepLogHeader header = make_log_header(tiny_spec(), 1, 4);
  const fs::path path = dir_ / "roundtrip.jsonl";
  UnitOutcome ok;
  ok.point = 2;
  ok.slot = 5;
  ok.ok = true;
  ok.attempts = 1;
  ok.seconds = 0.125;
  ok.metrics = {1, 13};
  UnitOutcome err;
  err.point = 0;
  err.slot = 1;
  err.ok = false;
  err.attempts = 2;
  err.seconds = 0.5;
  err.error = "quote \" comma , newline \n done";
  {
    SweepLogAppender appender(path, /*truncate=*/true);
    appender.append_header(header);
    appender.append(ok);
    appender.append(err);
  }
  const auto contents = read_sweep_log(path);
  ASSERT_TRUE(contents.header.has_value());
  EXPECT_TRUE(contents.header->same_sweep(header));
  EXPECT_EQ(contents.header->shard_index, 1u);
  EXPECT_EQ(contents.header->shard_count, 4u);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.units.size(), 2u);
  EXPECT_TRUE(contents.units[0].ok);
  EXPECT_EQ(contents.units[0].metrics, ok.metrics);
  EXPECT_DOUBLE_EQ(contents.units[0].seconds, 0.125);
  EXPECT_FALSE(contents.units[1].ok);
  EXPECT_EQ(contents.units[1].error, err.error);
  EXPECT_EQ(contents.units[1].attempts, 2u);
}

TEST_F(SweepRunnerTest, ValuesHashDiscriminates) {
  const SweepSpec a = tiny_spec();
  SweepSpec b = tiny_spec();
  b.values[1] += 1e-9;
  SweepSpec c = tiny_spec();
  c.slots_per_point += 1;
  EXPECT_NE(sweep_values_hash(a), sweep_values_hash(b));
  EXPECT_NE(sweep_values_hash(a), sweep_values_hash(c));
  EXPECT_EQ(sweep_values_hash(a), sweep_values_hash(tiny_spec()));
}

TEST_F(SweepRunnerTest, RejectsInvalidConfigurations) {
  const SweepSpec good = tiny_spec();
  RunnerOptions opt;
  opt.threads = 1;

  SweepSpec no_values = good;
  no_values.values.clear();
  EXPECT_THROW(run_sweep(no_values, opt), mcs::support::ContractViolation);

  SweepSpec no_eval = good;
  no_eval.evaluate = nullptr;
  EXPECT_THROW(run_sweep(no_eval, opt), mcs::support::ContractViolation);

  RunnerOptions bad_shard = opt;
  bad_shard.shard_index = 3;
  bad_shard.shard_count = 3;
  EXPECT_THROW(run_sweep(good, bad_shard), mcs::support::ContractViolation);

  RunnerOptions resume_without_log = opt;
  resume_without_log.resume = true;
  EXPECT_THROW(run_sweep(good, resume_without_log),
               mcs::support::ContractViolation);

  RunnerOptions zero_attempts = opt;
  zero_attempts.max_attempts = 0;
  EXPECT_THROW(run_sweep(good, zero_attempts),
               mcs::support::ContractViolation);
}

TEST_F(SweepRunnerTest, EvaluateMetricCountMismatchIsAnError) {
  SweepSpec spec = tiny_spec();
  spec.evaluate = [](const SweepUnit&, Rng&) {
    return std::vector<std::uint64_t>{1};  // two metrics declared
  };
  RunnerOptions opt;
  opt.threads = 1;
  opt.max_attempts = 1;
  const SweepRunResult run = run_sweep(spec, opt);
  EXPECT_EQ(run.errors, spec.values.size() * spec.slots_per_point);
}

}  // namespace
