// Tests of the bounded exhaustive model checker (verify/verify.hpp).
//
// Covers the headline guarantees: the seeded corpus verifies clean and
// *complete* (a proof over the bounded model), verdicts / statistics /
// counterexamples are byte-identical for every thread count, the exhaustive
// WCRT dominates any randomized simulation drawn from the same release
// model, analysis soundness holds (and its negative: deliberately
// tightened bounds must trip MCS-V008), and the documented rule catalogue
// stays in sync with the checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "rt/io.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"
#include "support/rng.hpp"
#include "verify/explorer.hpp"
#include "verify/verify.hpp"

namespace {

using mcs::rt::Task;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::sim::Protocol;
using mcs::verify::VerifyOptions;
using mcs::verify::VerifyResult;

Task make_task(std::string name, Time exec, Time copy_in, Time copy_out,
               Time period, Time deadline, mcs::rt::Priority priority,
               bool ls = false) {
  Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = copy_in;
  t.copy_out = copy_out;
  t.period = period;
  t.deadline = deadline;
  t.priority = priority;
  t.latency_sensitive = ls;
  return t;
}

TaskSet small_set() {
  return TaskSet({make_task("fast", 2, 1, 1, 8, 8, 0, true),
                  make_task("slow", 3, 1, 1, 12, 12, 1)});
}

std::string render_all(const mcs::check::CheckReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += mcs::check::render(d) + "\n";
  }
  return out;
}

std::vector<std::filesystem::path> corpus_files() {
  const std::filesystem::path dir =
      std::filesystem::path(MCS_SOURCE_DIR) / "workloads" / "verify";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wl") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Verify, CorpusProvesCleanWithAnalysisSoundness) {
  const std::vector<std::filesystem::path> files = corpus_files();
  ASSERT_GE(files.size(), 5u) << "verify corpus shrank";
  for (const auto& path : files) {
    const mcs::rt::Workload workload =
        mcs::rt::load_workload_file(path.string());
    const VerifyResult result =
        mcs::verify::verify(workload.tasks, Protocol::kProposed, {});
    EXPECT_TRUE(result.report.clean())
        << path << "\n" << render_all(result.report);
    EXPECT_TRUE(result.complete) << path << ": exploration truncated";
    EXPECT_FALSE(result.counterexample.has_value()) << path;
    for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
      // Every corpus task completes somewhere in the exploration, and the
      // exact WCRT respects the MILP bound (analysis soundness).
      EXPECT_GT(result.exact_wcrt[i], 0) << path;
      if (result.analysis_wcrt[i] != mcs::rt::kTimeMax) {
        EXPECT_LE(result.exact_wcrt[i], result.analysis_wcrt[i]) << path;
      }
    }
  }
}

TEST(Verify, WpProtocolCorpusEntryProvesClean) {
  const mcs::rt::Workload workload = mcs::rt::load_workload_file(
      (std::filesystem::path(MCS_SOURCE_DIR) / "workloads" / "verify" /
       "pair_ls.wl")
          .string());
  const VerifyResult result =
      mcs::verify::verify(workload.tasks, Protocol::kWasilyPellizzoni, {});
  EXPECT_TRUE(result.report.clean()) << render_all(result.report);
  EXPECT_TRUE(result.complete);
}

void expect_identical(const VerifyResult& a, const VerifyResult& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.release_branches, b.release_branches);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.exact_wcrt, b.exact_wcrt);
  EXPECT_EQ(render_all(a.report), render_all(b.report));
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
  if (a.counterexample) {
    ASSERT_EQ(a.counterexample->releases.size(),
              b.counterexample->releases.size());
    for (std::size_t i = 0; i < a.counterexample->releases.size(); ++i) {
      EXPECT_EQ(a.counterexample->releases[i].job,
                b.counterexample->releases[i].job);
      EXPECT_EQ(a.counterexample->releases[i].time,
                b.counterexample->releases[i].time);
    }
    EXPECT_EQ(a.counterexample->trace.intervals.size(),
              b.counterexample->trace.intervals.size());
    EXPECT_EQ(render_all(a.counterexample->trace_audit),
              render_all(b.counterexample->trace_audit));
  }
}

TEST(Verify, VerdictIsIdenticalForEveryThreadCount) {
  const TaskSet tasks = small_set();
  VerifyOptions options;
  options.check_analysis_soundness = false;

  options.threads = 1;
  const VerifyResult serial =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  ASSERT_TRUE(serial.report.clean()) << render_all(serial.report);
  ASSERT_TRUE(serial.complete);
  for (const unsigned threads : {2u, 5u, 8u}) {
    options.threads = threads;
    expect_identical(serial,
                     mcs::verify::verify(tasks, Protocol::kProposed, options));
  }

  // Same determinism requirement on the violating path: counterexamples
  // must not depend on the thread count either.
  options.mutation = mcs::sim::ProtocolMutation::kSpuriousCancellation;
  options.threads = 1;
  const VerifyResult violating =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  ASSERT_FALSE(violating.report.clean());
  ASSERT_TRUE(violating.counterexample.has_value());
  for (const unsigned threads : {2u, 5u, 8u}) {
    options.threads = threads;
    expect_identical(violating,
                     mcs::verify::verify(tasks, Protocol::kProposed, options));
  }
}

TEST(Verify, ExhaustiveWcrtDominatesRandomizedSimulation) {
  const TaskSet tasks = small_set();
  VerifyOptions options;
  options.check_analysis_soundness = false;
  const VerifyResult result =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  ASSERT_TRUE(result.complete);
  ASSERT_TRUE(result.report.clean()) << render_all(result.report);

  // Sample random release sequences from the verifier's own choice model
  // (first release o*L, gaps T + j*L, all strictly before the horizon):
  // each is one path of the exploration, so no simulated response may
  // exceed the exhaustive WCRT.
  mcs::support::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<mcs::sim::Release> releases;
    for (mcs::rt::TaskIndex t = 0; t < tasks.size(); ++t) {
      Time when = result.lattice * static_cast<Time>(rng.uniform_int(
                                       0, static_cast<std::int64_t>(
                                              options.offset_steps)));
      std::uint64_t seq = 0;
      while (when < result.horizon) {
        releases.push_back(mcs::sim::Release{mcs::sim::JobId{t, seq++}, when});
        when += tasks[t].period +
                result.lattice * static_cast<Time>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(
                                            options.jitter_steps)));
      }
    }
    const mcs::sim::Trace trace =
        mcs::sim::simulate(tasks, Protocol::kProposed, std::move(releases));
    ASSERT_FALSE(trace.aborted);
    for (const mcs::sim::JobRecord& job : trace.jobs) {
      ASSERT_TRUE(job.completed());
      EXPECT_LE(job.response_time(), result.exact_wcrt[job.id.task])
          << "trial " << trial;
    }
  }
}

TEST(Verify, TightenedBoundsTripAnalysisSoundness) {
  const TaskSet tasks = small_set();
  VerifyOptions options;
  options.check_analysis_soundness = false;
  const VerifyResult exact =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  ASSERT_TRUE(exact.complete);
  ASSERT_GT(exact.exact_wcrt[1], 0);

  // A bound one tick under the exact WCRT is unsound by construction; the
  // checker must find the witnessing completion and flag MCS-V008.
  options.analysis_bounds = exact.exact_wcrt;
  options.analysis_bounds[1] = exact.exact_wcrt[1] - 1;
  const VerifyResult result =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  ASSERT_FALSE(result.report.clean());
  EXPECT_TRUE(result.report.has_rule("MCS-V008"))
      << render_all(result.report);
  // The exhaustive WCRT includes the violating completion, so it exceeds
  // the bound it broke.
  EXPECT_GT(result.exact_wcrt[1], options.analysis_bounds[1]);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_FALSE(result.counterexample->releases.empty());
  // The replayed counterexample is a genuine protocol execution: the
  // independent trace audit finds nothing wrong with it (the violation is
  // the injected bound, not the schedule).
  EXPECT_TRUE(result.counterexample->trace_audit.clean())
      << render_all(result.counterexample->trace_audit);

  // Bounds at exactly the exhaustive WCRT are tight but sound.
  options.analysis_bounds = exact.exact_wcrt;
  const VerifyResult tight =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  EXPECT_TRUE(tight.report.clean()) << render_all(tight.report);
}

TEST(Verify, StateBudgetTruncationIsReportedNotProved) {
  const TaskSet tasks = small_set();
  VerifyOptions options;
  options.check_analysis_soundness = false;
  options.max_states = 64;  // far below the ~800 reachable states
  const VerifyResult result =
      mcs::verify::verify(tasks, Protocol::kProposed, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.complete);
}

TEST(Verify, HyperperiodClampsAndComposes) {
  const TaskSet tasks = small_set();  // periods 8, 12 -> lcm 24
  EXPECT_EQ(mcs::verify::hyperperiod(tasks, 4096), 24);
  EXPECT_EQ(mcs::verify::hyperperiod(tasks, 10), 10);
}

TEST(Verify, CatalogueCoversEveryVerifierRule) {
  for (const char* rule :
       {"MCS-V001", "MCS-V002", "MCS-V003", "MCS-V004", "MCS-V005",
        "MCS-V006", "MCS-V007", "MCS-V008", "MCS-V009", "MCS-V010"}) {
    EXPECT_NE(mcs::check::find_rule(rule), nullptr) << rule;
  }
}

}  // namespace
