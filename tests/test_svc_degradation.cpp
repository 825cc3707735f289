// Graceful-degradation tests for deadline-bounded analysis requests
// (docs/SERVICE.md §Budgets, analysis/budget.hpp).
//
// The safety contract under test: a degraded (budget-truncated) analysis
// replaces delay-MILP optima with LP relaxation dual bounds, which only
// *over*-estimate response times.  So a degraded verdict may flip
// schedulable -> unschedulable (pessimism), but never unschedulable ->
// schedulable; per-task degraded WCRT bounds dominate the exact ones; and
// a degraded-schedulable greedy run's final LS marking is an exact witness
// of schedulability.  Checked over a randomized corpus of the paper's own
// task-set distribution (§VII).
//
// Also covered: degraded verdicts are never cached, and overload shedding
// answers with a well-formed `overloaded` error carrying a retry-after
// hint instead of queueing unboundedly.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/budget.hpp"
#include "analysis/engine.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

using namespace mcs;
using support::Json;

namespace {

rt::TaskSet corpus_set(std::uint64_t seed, double utilization) {
  gen::GeneratorConfig config;
  config.num_tasks = 4;
  config.utilization = utilization;
  config.gamma = 0.2;
  config.beta = 0.5;
  support::Rng rng(seed);
  return gen::generate_task_set(config, rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// SolveBudget semantics

TEST(SvcDegradation, DefaultBudgetIsUnlimited) {
  const analysis::SolveBudget budget;
  EXPECT_TRUE(budget.is_unlimited());
  EXPECT_FALSE(budget.exceeded());
}

TEST(SvcDegradation, ExhaustedBudgetIsMonotonicallyExceeded) {
  const analysis::SolveBudget budget = analysis::SolveBudget::exhausted();
  EXPECT_FALSE(budget.is_unlimited());
  EXPECT_TRUE(budget.exceeded());
  EXPECT_TRUE(budget.exceeded());  // stays exceeded
}

TEST(SvcDegradation, NonPositiveHeadroomIsExhausted) {
  EXPECT_TRUE(
      analysis::SolveBudget::after(std::chrono::nanoseconds{0}).exceeded());
  EXPECT_TRUE(
      analysis::SolveBudget::after(std::chrono::nanoseconds{-5}).exceeded());
  EXPECT_FALSE(analysis::SolveBudget::after(std::chrono::hours{1}).exceeded());
}

// ---------------------------------------------------------------------------
// Safety of degraded analysis (engine level)

TEST(SvcDegradation, DegradedVerdictsNeverOverClaimSameMarking) {
  // Fixed marking (analyze_marked / analyze_wp): the degraded path answers
  // with LP dual bounds, which are upper bounds on the MILP optima, so a
  // degraded "schedulable" — per task and for the whole set — must be
  // confirmed by the exact analysis.  Raw WCRT numbers are *not* compared
  // outside the both-schedulable case: for a task past its deadline both
  // analyses report their (different) deadline-crossing values, and two
  // safe upper bounds from different solve paths may differ either way.
  const analysis::SolveBudget exhausted = analysis::SolveBudget::exhausted();
  const analysis::SolveBudget unlimited;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const double u : {0.4, 0.7}) {
      const rt::TaskSet generated = corpus_set(seed, u);
      // Mark the highest-priority task LS so the marked analysis exercises
      // the LS case (a)/(b) formulations, not just the NLS one.
      std::vector<rt::Task> with_ls;
      for (rt::TaskIndex i = 0; i < generated.size(); ++i) {
        rt::Task t = generated[i];
        if (t.priority == 0) t.latency_sensitive = true;
        with_ls.push_back(std::move(t));
      }
      const rt::TaskSet marked_set(with_ls);

      analysis::AnalysisOptions exact_options;
      exact_options.budget = &unlimited;
      analysis::AnalysisOptions degraded_options;
      degraded_options.budget = &exhausted;

      analysis::AnalysisEngine exact_engine;
      analysis::AnalysisEngine degraded_engine;
      for (const bool wp : {false, true}) {
        const rt::TaskSet& tasks = wp ? generated : marked_set;
        const analysis::WpResult exact =
            wp ? exact_engine.analyze_wp(tasks, exact_options)
               : exact_engine.analyze_marked(tasks, exact_options);
        const analysis::WpResult degraded =
            wp ? degraded_engine.analyze_wp(tasks, degraded_options)
               : degraded_engine.analyze_marked(tasks, degraded_options);

        EXPECT_TRUE(degraded.degraded) << "seed " << seed;
        EXPECT_FALSE(exact.degraded) << "seed " << seed;
        // Never flips unschedulable -> schedulable.
        if (degraded.schedulable) {
          EXPECT_TRUE(exact.schedulable)
              << "seed " << seed << " u=" << u << " wp=" << wp
              << ": degraded verdict over-claimed schedulability";
        }
        ASSERT_EQ(degraded.per_task.size(), exact.per_task.size());
        for (std::size_t i = 0; i < exact.per_task.size(); ++i) {
          if (!degraded.per_task[i].schedulable) continue;
          EXPECT_TRUE(exact.per_task[i].schedulable)
              << "seed " << seed << " u=" << u << " wp=" << wp << " task "
              << i << ": degraded bound claimed schedulable where the exact "
              << "analysis does not";
          // Both below the deadline: the pure-relaxation bound dominates
          // the exact fixpoint pointwise, up to one tick of delay_to_ticks
          // rounding between the two solve paths.
          if (exact.per_task[i].schedulable) {
            EXPECT_GE(degraded.per_task[i].wcrt + 1, exact.per_task[i].wcrt)
                << "seed " << seed << " u=" << u << " wp=" << wp << " task "
                << i << ": degraded bound materially below the exact bound";
          }
        }
      }
    }
  }
}

TEST(SvcDegradation, DegradedGreedyMarkingIsAnExactWitness) {
  // Greedy re-marks the set, so degraded and exact runs may end at
  // different markings and per-task bounds are not comparable.  The
  // provable statement (and the one admission decisions rely on): when the
  // degraded greedy run answers schedulable, its final LS marking is a
  // witness under which the *exact* fixed-marking analysis is schedulable.
  const analysis::SolveBudget exhausted = analysis::SolveBudget::exhausted();
  bool saw_degraded_schedulable = false;
  for (std::uint64_t seed = 20; seed <= 40; ++seed) {
    const rt::TaskSet tasks = corpus_set(seed, 0.4);

    analysis::AnalysisOptions degraded_options;
    degraded_options.budget = &exhausted;
    analysis::AnalysisEngine degraded_engine;
    const analysis::ProposedResult degraded =
        degraded_engine.analyze_proposed(tasks, degraded_options);
    EXPECT_TRUE(degraded.degraded);
    if (!degraded.schedulable) continue;
    saw_degraded_schedulable = true;

    std::vector<rt::Task> marked_tasks;
    for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
      rt::Task t = tasks[i];
      t.latency_sensitive = degraded.ls_flags[i];
      marked_tasks.push_back(std::move(t));
    }
    analysis::AnalysisEngine exact_engine;
    const analysis::WpResult exact =
        exact_engine.analyze_marked(rt::TaskSet(marked_tasks));
    EXPECT_TRUE(exact.schedulable)
        << "seed " << seed
        << ": degraded greedy claimed schedulable but its marking is not an "
           "exact witness";
  }
  EXPECT_TRUE(saw_degraded_schedulable)
      << "corpus never produced a degraded-schedulable set; the safety "
         "direction was not exercised — loosen the generator config";
}

// ---------------------------------------------------------------------------
// Service-level budget handling

TEST(SvcDegradation, ExplicitZeroBudgetDegradesDeterministically) {
  svc::AdmissionService service;
  const std::string response_line = service.handle_line(
      "{\"op\":\"analyze\",\"core\":\"c\",\"task\":{\"name\":\"a\","
      "\"exec\":300,\"copy_in\":60,\"copy_out\":60,\"period\":2000,"
      "\"deadline\":1700,\"prio\":0},\"budget_ms\":0}");
  const Json response = support::parse_json(response_line);
  ASSERT_TRUE(response.find("ok")->as_bool()) << response_line;
  EXPECT_TRUE(response.find("verdict")->find("degraded")->as_bool());
  EXPECT_FALSE(response.find("verdict")->find("cached")->as_bool());
  EXPECT_EQ(service.stats().degraded_verdicts, 1u);
}

TEST(SvcDegradation, DegradedVerdictsAreNeverCached) {
  svc::AdmissionService service;
  const std::string request =
      "{\"op\":\"analyze\",\"core\":\"c\",\"task\":{\"name\":\"a\","
      "\"exec\":300,\"copy_in\":60,\"copy_out\":60,\"period\":2000,"
      "\"deadline\":1700,\"prio\":0},\"budget_ms\":0}";
  for (int i = 0; i < 2; ++i) {
    const Json response = support::parse_json(service.handle_line(request));
    ASSERT_TRUE(response.find("ok")->as_bool());
    EXPECT_TRUE(response.find("verdict")->find("degraded")->as_bool());
    EXPECT_FALSE(response.find("verdict")->find("cached")->as_bool())
        << "degraded verdict was served from cache on attempt " << i;
  }
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.degraded_verdicts, 2u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(SvcDegradation, DegradedScheduleCommitsAreSound) {
  // An admit under an exhausted budget may commit only when the degraded
  // verdict is schedulable; by the dominance direction above that commit
  // is sound.  Verify the committed state re-analyzes schedulable with an
  // unlimited budget.
  svc::AdmissionService service;
  const Json admit = support::parse_json(service.handle_line(
      "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"name\":\"a\","
      "\"exec\":100,\"copy_in\":10,\"copy_out\":10,\"period\":5000,"
      "\"deadline\":5000,\"prio\":0},\"budget_ms\":0}"));
  ASSERT_TRUE(admit.find("ok")->as_bool());
  EXPECT_TRUE(admit.find("verdict")->find("degraded")->as_bool());
  if (admit.find("committed")->as_bool()) {
    const Json exact = support::parse_json(
        service.handle_line("{\"op\":\"analyze\",\"core\":\"c\"}"));
    ASSERT_TRUE(exact.find("ok")->as_bool());
    EXPECT_FALSE(exact.find("verdict")->find("degraded")->as_bool());
    EXPECT_TRUE(exact.find("verdict")->find("schedulable")->as_bool())
        << "service committed a task under a degraded verdict that the "
           "exact analysis rejects";
  }
}

TEST(SvcDegradation, NegativeBudgetIsABadRequest) {
  svc::AdmissionService service;
  const Json response = support::parse_json(service.handle_line(
      "{\"op\":\"analyze\",\"core\":\"c\",\"budget_ms\":-1}"));
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->find("code")->as_string(), "bad_request");
}

// ---------------------------------------------------------------------------
// Overload shedding

TEST(SvcDegradation, SheddingAnswersWithRetryAfter) {
  // One worker, high water of 1: stall the worker on a latch, then pile on
  // requests.  Everything beyond the high water must be shed with a
  // well-formed `overloaded` error carrying retry_after_ms >= the base
  // hint, and every callback must fire exactly once.
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool release = false;

  svc::ServiceConfig config;
  config.threads = 1;
  config.queue_high_water = 1;
  config.base_retry_ms = 25;
  config.test_request_hook = [&] {
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return release; });
  };
  svc::AdmissionService service(std::move(config));

  constexpr std::size_t kRequests = 6;
  std::vector<std::future<std::string>> futures;
  std::vector<std::promise<std::string>> promises(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(promises[i].get_future());
    std::promise<std::string>* p = &promises[i];
    service.submit("{\"op\":\"status\"}",
                   [p](std::string r) { p->set_value(std::move(r)); });
  }
  {
    const std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  service.drain();

  int shed = 0;
  for (auto& future : futures) {
    const std::string line = future.get();  // throws if a callback was lost
    const Json response = support::parse_json(line);
    if (response.find("ok")->as_bool()) continue;
    const Json* error = response.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->find("code")->as_string(), "overloaded") << line;
    const Json* retry = error->find("retry_after_ms");
    ASSERT_NE(retry, nullptr) << line;
    EXPECT_GE(retry->as_int64(), 25) << line;
    ++shed;
  }
  EXPECT_GT(shed, 0) << "nothing was shed despite a stalled worker";
  EXPECT_EQ(service.stats().shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(service.stats().queue_depth, 0u);
}
