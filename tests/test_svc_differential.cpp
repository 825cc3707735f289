// Differential fuzz for the admission-control service (docs/SERVICE.md).
//
// Drives an AdmissionService through long randomized admit / remove /
// mark_ls / analyze sequences and, for every verdict it answers — fresh,
// served from the LRU cache, or served right after a cache eviction —
// recomputes the same membership on a fresh single-shot AnalysisEngine and
// requires the two to match exactly: schedulability, greedy rounds, the LS
// marking, and every per-task WCRT bound.  The cache capacity is kept tiny
// (4 entries) so eviction boundaries are crossed constantly, and requests
// alternate between two cores so their memberships interleave.
//
// Op count scales with MCS_FUZZ_OPS (default 300 per seed; the admitted
// sets grow with the op count, so cost is super-linear) for soak runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/budget.hpp"
#include "analysis/engine.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "svc/fingerprint.hpp"
#include "svc/service.hpp"

using namespace mcs;
using support::Json;

namespace {

struct RefVerdict {
  bool schedulable = false;
  int rounds = 0;
  std::vector<std::string> names;
  std::vector<rt::Time> wcrt;  // rt::kTimeMax = diverged (JSON null)
  std::vector<bool> ls;
};

/// Reference semantics: one full analysis on a *fresh* engine with an
/// unlimited budget, shaped in canonical order — exactly what the service
/// promises every non-degraded response is equivalent to.
RefVerdict reference_verdict(const rt::TaskSet& tasks, svc::AnalysisMode mode) {
  analysis::AnalysisEngine engine;
  analysis::AnalysisOptions options;
  const analysis::SolveBudget unlimited;
  options.budget = &unlimited;
  RefVerdict ref;
  const std::vector<rt::TaskIndex> order = svc::canonical_order(tasks);
  switch (mode) {
    case svc::AnalysisMode::kGreedy: {
      const analysis::ProposedResult r = engine.analyze_proposed(tasks, options);
      ref.schedulable = r.schedulable;
      ref.rounds = static_cast<int>(r.rounds);
      for (const rt::TaskIndex i : order) {
        ref.names.push_back(tasks[i].name);
        ref.wcrt.push_back(r.per_task[i].wcrt);
        ref.ls.push_back(r.ls_flags[i]);
      }
      break;
    }
    case svc::AnalysisMode::kMarked: {
      const analysis::WpResult r = engine.analyze_marked(tasks, options);
      ref.schedulable = r.schedulable;
      for (const rt::TaskIndex i : order) {
        ref.names.push_back(tasks[i].name);
        ref.wcrt.push_back(r.per_task[i].wcrt);
        ref.ls.push_back(tasks[i].latency_sensitive);
      }
      break;
    }
    case svc::AnalysisMode::kWp: {
      const analysis::WpResult r = engine.analyze_wp(tasks, options);
      ref.schedulable = r.schedulable;
      for (const rt::TaskIndex i : order) {
        ref.names.push_back(tasks[i].name);
        ref.wcrt.push_back(r.per_task[i].wcrt);
        ref.ls.push_back(false);
      }
      break;
    }
  }
  return ref;
}

/// Asserts that a service response's verdict matches the reference bit for
/// bit (and was not degraded — these requests carry no budget).
void expect_verdict_matches(const Json& response, const RefVerdict& ref,
                            const rt::TaskSet& tasks, svc::AnalysisMode mode,
                            const std::string& context) {
  const Json* verdict = response.find("verdict");
  ASSERT_NE(verdict, nullptr) << context;
  EXPECT_FALSE(verdict->find("degraded")->as_bool()) << context;
  EXPECT_EQ(verdict->find("schedulable")->as_bool(), ref.schedulable)
      << context;
  if (mode == svc::AnalysisMode::kGreedy) {
    EXPECT_EQ(verdict->find("rounds")->as_int64(), ref.rounds) << context;
  }
  // The fingerprint in the response must be the canonical one for the
  // analyzed membership.
  std::ostringstream fp_hex;
  fp_hex << std::hex;
  fp_hex.width(16);
  fp_hex.fill('0');
  fp_hex << svc::fingerprint(tasks, mode);
  EXPECT_EQ(verdict->find("fingerprint")->as_string(), fp_hex.str()) << context;

  const Json::Array& per_task = verdict->find("tasks")->as_array();
  ASSERT_EQ(per_task.size(), ref.names.size()) << context;
  for (std::size_t i = 0; i < per_task.size(); ++i) {
    const std::string task_ctx =
        context + " task#" + std::to_string(i) + " (" + ref.names[i] + ")";
    EXPECT_EQ(per_task[i].find("name")->as_string(), ref.names[i]) << task_ctx;
    EXPECT_EQ(per_task[i].find("ls")->as_bool(), ref.ls[i]) << task_ctx;
    const Json* wcrt = per_task[i].find("wcrt");
    ASSERT_NE(wcrt, nullptr) << task_ctx;
    if (ref.wcrt[i] == rt::kTimeMax) {
      EXPECT_TRUE(wcrt->is_null()) << task_ctx;
    } else {
      ASSERT_FALSE(wcrt->is_null()) << task_ctx;
      EXPECT_EQ(wcrt->as_int64(), ref.wcrt[i]) << task_ctx;
    }
  }
}

std::string task_json(const rt::Task& t) {
  std::ostringstream out;
  out << "{\"name\":\"" << t.name << "\",\"exec\":" << t.exec
      << ",\"copy_in\":" << t.copy_in << ",\"copy_out\":" << t.copy_out
      << ",\"period\":" << t.period << ",\"deadline\":" << t.deadline
      << ",\"prio\":" << t.priority
      << (t.latency_sensitive ? ",\"ls\":true}" : "}");
  return out.str();
}

const char* mode_name(svc::AnalysisMode mode) { return svc::to_string(mode); }

/// One request line and the service's response to it.
using Exchange = std::pair<std::string, std::string>;

/// One fuzz run: `ops` random operations on `service`, differential-checked
/// against fresh engines throughout.  Shadow state mirrors the service's
/// per-core memberships; any divergence between shadow and service verdicts
/// is a bug in the cache, the analysis path, or the commit logic.  Every
/// request and response is appended to `transcript` when it is given.
void fuzz_run(svc::AdmissionService& service, std::uint64_t seed, int ops,
              std::vector<Exchange>* transcript = nullptr) {
  const auto send = [&](const std::string& line) {
    std::string response = service.handle_line(line);
    if (transcript != nullptr) transcript->emplace_back(line, response);
    return response;
  };
  support::Rng rng(seed);
  const std::vector<std::string> cores = {"c0", "c1"};
  std::map<std::string, std::vector<rt::Task>> shadow;
  int next_task_id = 0;

  for (int op_index = 0; op_index < ops; ++op_index) {
    const std::string& core = cores[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cores.size()) - 1))];
    std::vector<rt::Task>& tasks = shadow[core];
    const std::string context = "seed=" + std::to_string(seed) +
                                " op#" + std::to_string(op_index) +
                                " core=" + core;

    // Pick an operation: grow small sets, shrink/query larger ones.
    enum { kAdmit, kRemove, kMarkLs, kAnalyze } kind;
    const double grow = tasks.size() >= 4 ? 0.05 : 0.45;
    const double r = rng.uniform01();
    if (r < grow) {
      kind = kAdmit;
    } else if (tasks.empty()) {
      kind = kAnalyze;
    } else if (r < grow + 0.20) {
      kind = kRemove;
    } else if (r < grow + 0.45) {
      kind = kMarkLs;
    } else {
      kind = kAnalyze;
    }

    if (kind == kAdmit) {
      rt::Task t;
      t.name = std::string("t").append(std::to_string(next_task_id++));
      t.exec = rng.uniform_int(50, 400);
      t.copy_in = rng.uniform_int(10, 120);
      t.copy_out = rng.uniform_int(10, 120);
      t.period = rng.uniform_int(900, 6000);
      t.deadline = t.period - rng.uniform_int(0, t.period / 4);
      std::set<rt::Priority> taken;
      for (const rt::Task& existing : tasks) taken.insert(existing.priority);
      do {
        t.priority = static_cast<rt::Priority>(rng.uniform_int(0, 31));
      } while (taken.count(t.priority) != 0);

      std::vector<rt::Task> candidate = tasks;
      candidate.push_back(t);
      const rt::TaskSet candidate_set(candidate);
      const RefVerdict ref =
          reference_verdict(candidate_set, svc::AnalysisMode::kGreedy);

      const std::string response_line = send(
          "{\"op\":\"admit\",\"core\":\"" + core +
          "\",\"task\":" + task_json(t) + "}");
      const Json response = support::parse_json(response_line);
      ASSERT_TRUE(response.find("ok")->as_bool()) << context << "\n"
                                                  << response_line;
      expect_verdict_matches(response, ref, candidate_set,
                             svc::AnalysisMode::kGreedy, context + " admit");
      const bool committed = response.find("committed")->as_bool();
      EXPECT_EQ(committed, ref.schedulable) << context;
      if (committed) tasks = std::move(candidate);
    } else if (kind == kRemove) {
      const std::size_t victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
      const std::string name = tasks[victim].name;
      const std::string response_line = send(
          "{\"op\":\"remove\",\"core\":\"" + core + "\",\"name\":\"" + name +
          "\"}");
      const Json response = support::parse_json(response_line);
      ASSERT_TRUE(response.find("ok")->as_bool()) << context << "\n"
                                                  << response_line;
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(victim));
      EXPECT_EQ(response.find("tasks")->as_int64(),
                static_cast<std::int64_t>(tasks.size()))
          << context;
    } else if (kind == kMarkLs) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
      const bool want_ls = !tasks[pick].latency_sensitive;
      std::vector<rt::Task> candidate = tasks;
      candidate[pick].latency_sensitive = want_ls;
      const rt::TaskSet candidate_set(candidate);
      const RefVerdict ref =
          reference_verdict(candidate_set, svc::AnalysisMode::kMarked);

      const std::string response_line = send(
          "{\"op\":\"mark_ls\",\"core\":\"" + core + "\",\"name\":\"" +
          tasks[pick].name + "\",\"ls\":" + (want_ls ? "true" : "false") +
          "}");
      const Json response = support::parse_json(response_line);
      ASSERT_TRUE(response.find("ok")->as_bool()) << context << "\n"
                                                  << response_line;
      expect_verdict_matches(response, ref, candidate_set,
                             svc::AnalysisMode::kMarked, context + " mark_ls");
      const bool committed = response.find("committed")->as_bool();
      EXPECT_EQ(committed, ref.schedulable) << context;
      if (committed) tasks = std::move(candidate);
    } else {  // kAnalyze
      static const svc::AnalysisMode kModes[] = {svc::AnalysisMode::kGreedy,
                                                 svc::AnalysisMode::kMarked,
                                                 svc::AnalysisMode::kWp};
      const svc::AnalysisMode mode =
          kModes[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const rt::TaskSet set(tasks);
      const RefVerdict ref = reference_verdict(set, mode);
      const std::string response_line = send(
          "{\"op\":\"analyze\",\"core\":\"" + core + "\",\"mode\":\"" +
          mode_name(mode) + "\"}");
      const Json response = support::parse_json(response_line);
      ASSERT_TRUE(response.find("ok")->as_bool()) << context << "\n"
                                                  << response_line;
      expect_verdict_matches(response, ref, set, mode,
                             context + " analyze/" + mode_name(mode));
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;  // first divergence carries all the signal; stop the run
    }
  }
}

int ops_per_seed() {
  if (const char* env = std::getenv("MCS_FUZZ_OPS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 300;
}

}  // namespace

TEST(SvcDifferential, RandomizedSequencesMatchFreshEngine) {
  // Tiny cache so eviction boundaries are crossed constantly: two cores
  // times three modes times churning memberships >> 4 entries.
  svc::ServiceConfig config;
  config.cache_capacity = 4;
  svc::AdmissionService service(std::move(config));
  fuzz_run(service, /*seed=*/1u, ops_per_seed());

  // The run must actually have exercised the cache paths it claims to
  // differential-test.
  const svc::ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_evictions, 0u)
      << "fuzz never crossed an eviction boundary; shrink the cache";
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.degraded_verdicts, 0u);
}

TEST(SvcDifferential, SecondSeedWithCachingDisabled) {
  // capacity 0: every verdict is computed, none served from the cache, so
  // this seed differential-tests the service's analysis path in isolation.
  svc::ServiceConfig config;
  config.cache_capacity = 0;
  svc::AdmissionService service(config);
  std::vector<Exchange> transcript;
  fuzz_run(service, /*seed=*/2u, ops_per_seed(), &transcript);
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);

  // Replayed back to back, with no reference analysis in between, the same
  // requests must get the same responses: a verdict is a function of the
  // request sequence alone.  Between two requests fuzz_run builds its
  // reference task set, which takes the memory the previous request's
  // arrival curves freed; the replay lets the allocator hand those
  // addresses to the next request's curves, which is where state carried
  // across requests and keyed by address moves a verdict (for seed 2, the
  // relaxation flag of request #217).
  svc::AdmissionService replay(config);
  for (std::size_t k = 0; k < transcript.size(); ++k) {
    EXPECT_EQ(replay.handle_line(transcript[k].first), transcript[k].second)
        << "request #" << k << ": " << transcript[k].first;
  }
}

TEST(SvcDifferential, ReanalysisAfterRemoveMatchesFreshEngine) {
  // Deterministic regression shape for the cache-invalidation hazard:
  // analyze a membership, remove a task, re-analyze, re-admit the same
  // task, re-analyze.  The final verdict must come from (or equal) the
  // original analysis even though the core analyzed a different membership
  // in between.
  svc::ServiceConfig config;
  config.cache_capacity = 8;
  svc::AdmissionService service(std::move(config));

  const char* admit_a =
      "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"name\":\"a\",\"exec\":300,"
      "\"copy_in\":60,\"copy_out\":60,\"period\":2000,\"deadline\":1700,"
      "\"prio\":0}}";
  const char* admit_b =
      "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"name\":\"b\",\"exec\":900,"
      "\"copy_in\":350,\"copy_out\":350,\"period\":5000,\"deadline\":5000,"
      "\"prio\":1}}";
  ASSERT_TRUE(support::parse_json(service.handle_line(admit_a))
                  .find("ok")->as_bool());
  ASSERT_TRUE(support::parse_json(service.handle_line(admit_b))
                  .find("ok")->as_bool());

  const std::string first =
      service.handle_line("{\"op\":\"analyze\",\"core\":\"c\"}");
  ASSERT_TRUE(support::parse_json(first).find("ok")->as_bool());

  ASSERT_TRUE(support::parse_json(service.handle_line(
                  "{\"op\":\"remove\",\"core\":\"c\",\"name\":\"b\"}"))
                  .find("ok")->as_bool());
  ASSERT_TRUE(support::parse_json(
                  service.handle_line("{\"op\":\"analyze\",\"core\":\"c\"}"))
                  .find("ok")->as_bool());
  ASSERT_TRUE(support::parse_json(service.handle_line(admit_b))
                  .find("ok")->as_bool());

  const std::string again =
      service.handle_line("{\"op\":\"analyze\",\"core\":\"c\"}");
  const Json first_json = support::parse_json(first);
  const Json again_json = support::parse_json(again);
  ASSERT_TRUE(again_json.find("ok")->as_bool());
  // Same membership -> same fingerprint and identical verdict content; only
  // the `cached` flag may differ.
  EXPECT_EQ(first_json.find("verdict")->find("fingerprint")->as_string(),
            again_json.find("verdict")->find("fingerprint")->as_string());
  EXPECT_EQ(first_json.find("verdict")->find("tasks")->dump(),
            again_json.find("verdict")->find("tasks")->dump());
  EXPECT_EQ(first_json.find("verdict")->find("schedulable")->as_bool(),
            again_json.find("verdict")->find("schedulable")->as_bool());
}
