// Property-based validation of the protocol implementation: the paper's
// Properties 1-4 (and the engine's structural invariants) must hold on
// randomized task sets under randomized sporadic release patterns.  These
// tests are the executable counterpart of the proofs in §IV-B.
#include <gtest/gtest.h>

#include "check/trace_audit.hpp"
#include "gen/generator.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"
#include "support/rng.hpp"

namespace {

using mcs::check::audit_trace;
using mcs::check::CheckReport;
using mcs::gen::GeneratorConfig;
using mcs::gen::generate_task_set;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::sim::Protocol;
using mcs::sim::random_sporadic_releases;
using mcs::sim::simulate;
using mcs::sim::synchronous_periodic_releases;
using mcs::sim::Trace;
using mcs::support::Rng;

struct PropertyCase {
  std::uint64_t seed;
  Protocol protocol;
};

class ProtocolProperties : public ::testing::TestWithParam<PropertyCase> {};

std::string explain(const CheckReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += mcs::check::render(d) + "\n";
  }
  return out;
}

TEST_P(ProtocolProperties, RandomTracesSatisfyAllInvariants) {
  const auto [seed, protocol] = GetParam();
  Rng rng(seed);
  GeneratorConfig cfg;
  cfg.num_tasks = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  cfg.utilization = rng.uniform(0.2, 0.65);
  cfg.gamma = rng.uniform(0.05, 0.5);
  cfg.beta = rng.uniform(0.1, 0.9);
  TaskSet tasks = generate_task_set(cfg, rng);

  // Random latency-sensitive subset (only meaningful for kProposed).
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].latency_sensitive = rng.bernoulli(0.4);
  }

  const Time horizon = 400 * mcs::rt::kTicksPerUnit;
  const auto releases = rng.bernoulli(0.5)
                            ? synchronous_periodic_releases(tasks, horizon)
                            : random_sporadic_releases(tasks, horizon,
                                                       /*max_slack=*/0.8, rng);
  const Trace trace = simulate(tasks, protocol, releases);
  const CheckReport report = audit_trace(tasks, protocol, trace);
  EXPECT_TRUE(report.clean()) << explain(report);
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    cases.push_back({seed, Protocol::kProposed});
  }
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    cases.push_back({seed + 100, Protocol::kWasilyPellizzoni});
    cases.push_back({seed + 200, Protocol::kNonPreemptive});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolProperties,
                         ::testing::ValuesIn(make_cases()),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param.protocol)) +
                                  "_seed" + std::to_string(param_info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Focused property: LS jobs in all-LS task sets never see more than one
// blocking interval, even under adversarial (randomized) release offsets.
// ---------------------------------------------------------------------------

class LsBlockingBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LsBlockingBound, AtMostOneBlockingInterval) {
  Rng rng(GetParam() * 31 + 7);
  GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.6);
  cfg.gamma = rng.uniform(0.1, 0.5);
  TaskSet tasks = generate_task_set(cfg, rng);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].latency_sensitive = true;
  }
  const Time horizon = 300 * mcs::rt::kTicksPerUnit;
  const auto releases =
      random_sporadic_releases(tasks, horizon, 1.0, rng);
  const Trace trace = simulate(tasks, Protocol::kProposed, releases);
  // Property 4: no LS job blocked in more than one interval.
  const CheckReport report = audit_trace(tasks, Protocol::kProposed, trace);
  EXPECT_FALSE(report.has_rule("MCS-P009")) << explain(report);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsBlockingBound,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Focused property: under WP (no LS machinery) blocking never exceeds two
// intervals — the bound [3] proves and the paper's analysis encodes.
// ---------------------------------------------------------------------------

class NlsBlockingBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NlsBlockingBound, AtMostTwoBlockingIntervals) {
  Rng rng(GetParam() * 17 + 3);
  GeneratorConfig cfg;
  cfg.num_tasks = 5;
  cfg.utilization = rng.uniform(0.3, 0.7);
  cfg.gamma = rng.uniform(0.1, 0.5);
  const TaskSet tasks = generate_task_set(cfg, rng);
  const Time horizon = 300 * mcs::rt::kTicksPerUnit;
  const auto releases =
      random_sporadic_releases(tasks, horizon, 1.0, rng);
  const Trace trace = simulate(tasks, Protocol::kWasilyPellizzoni, releases);
  // Property 3: no job blocked in more than two intervals.
  const CheckReport report =
      audit_trace(tasks, Protocol::kWasilyPellizzoni, trace);
  EXPECT_FALSE(report.has_rule("MCS-P010")) << explain(report);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NlsBlockingBound,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Work conservation sanity: every released job of a feasible, lightly
// loaded set completes under every protocol.
// ---------------------------------------------------------------------------

class LightLoadCompletion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LightLoadCompletion, AllJobsComplete) {
  Rng rng(GetParam() + 500);
  GeneratorConfig cfg;
  cfg.num_tasks = 3;
  cfg.utilization = 0.3;
  cfg.gamma = 0.2;
  const TaskSet tasks = generate_task_set(cfg, rng);
  const Time horizon = 500 * mcs::rt::kTicksPerUnit;
  const auto releases = synchronous_periodic_releases(tasks, horizon);
  for (const Protocol p :
       {Protocol::kProposed, Protocol::kWasilyPellizzoni,
        Protocol::kNonPreemptive}) {
    const Trace trace = simulate(tasks, p, releases);
    EXPECT_FALSE(trace.aborted);
    for (const auto& job : trace.jobs) {
      EXPECT_TRUE(job.completed()) << to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LightLoadCompletion,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
