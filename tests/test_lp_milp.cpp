#include "lp/milp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "gen/generator.hpp"
#include "lp/model.hpp"
#include "support/rng.hpp"

namespace {

using mcs::lp::kInfinity;
using mcs::lp::LinExpr;
using mcs::lp::MilpOptions;
using mcs::lp::MilpResult;
using mcs::lp::MilpSearch;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::SearchBounds;
using mcs::lp::Sense;
using mcs::lp::SimplexKernel;
using mcs::lp::solve_lp;
using mcs::lp::solve_milp;
using mcs::lp::SolveStatus;
using mcs::lp::VarId;

constexpr double kTol = 1e-5;

// Brute force over all integer assignments (requires every variable to be
// integral with a small finite domain).
double brute_force_best(const Model& model, bool& feasible) {
  const std::size_t n = model.num_variables();
  std::vector<double> assignment(n, 0.0);
  std::vector<std::pair<long, long>> domains;
  domains.reserve(n);
  for (const auto& v : model.variables()) {
    domains.emplace_back(static_cast<long>(std::ceil(v.lower)),
                         static_cast<long>(std::floor(v.upper)));
  }
  feasible = false;
  const bool maximize = model.objective_sense() == Sense::kMaximize;
  double best = maximize ? -kInfinity : kInfinity;
  // Odometer enumeration.
  std::vector<long> current;
  for (const auto& [lo, hi] : domains) {
    if (lo > hi) return best;
    current.push_back(lo);
  }
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      assignment[i] = static_cast<double>(current[i]);
    }
    if (model.is_feasible(assignment, 1e-7)) {
      feasible = true;
      const double obj = model.evaluate(model.objective(), assignment);
      best = maximize ? std::max(best, obj) : std::min(best, obj);
    }
    std::size_t pos = 0;
    while (pos < n && ++current[pos] > domains[pos].second) {
      current[pos] = domains[pos].first;
      ++pos;
    }
    if (pos == n) break;
  }
  return best;
}

TEST(Milp, PureLpPassThrough) {
  Model m;
  const VarId x = m.add_continuous(0, 4, "x");
  m.set_objective(Sense::kMaximize, LinExpr(x));
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, kTol);
}

TEST(Milp, SmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17) vs b+c (20).
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c),
                   Relation::kLe, 6.0);
  m.set_objective(Sense::kMaximize,
                  10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c));
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, kTol);
  EXPECT_NEAR(r.values[b.index], 1.0, kTol);
  EXPECT_NEAR(r.values[c.index], 1.0, kTol);
  EXPECT_NEAR(r.values[a.index], 0.0, kTol);
}

TEST(Milp, IntegerRounding) {
  // max x with 2x <= 7, x integer -> 3 (LP would say 3.5).
  Model m;
  const VarId x = m.add_integer(0, 100, "x");
  m.add_constraint(2.0 * LinExpr(x), Relation::kLe, 7.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, kTol);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const VarId x = m.add_integer(0, 10, "x");
  m.add_constraint(LinExpr(x), Relation::kGe, 0.4);
  m.add_constraint(LinExpr(x), Relation::kLe, 0.6);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2b + y, y <= 1.5, y <= 10 b, b binary.
  Model m;
  const VarId b = m.add_binary("b");
  const VarId y = m.add_continuous(0, 1.5, "y");
  m.add_constraint(LinExpr(y) - 10.0 * LinExpr(b), Relation::kLe, 0.0);
  m.set_objective(Sense::kMaximize, 2.0 * LinExpr(b) + LinExpr(y));
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.5, kTol);
}

TEST(Milp, BigMMaxEncoding) {
  // The analysis encodes Delta = max(A, B) via Constraint 13's big-M pair;
  // verify the encoding picks the true maximum under maximization.
  Model m;
  const double big_m = 100.0;
  const VarId delta = m.add_continuous(0, kInfinity, "delta");
  const VarId alpha = m.add_binary("alpha");
  const double a = 7.0, b = 11.0;
  m.add_constraint(LinExpr(delta),
                   Relation::kLe, LinExpr(a) + big_m * LinExpr(alpha));
  m.add_constraint(LinExpr(delta), Relation::kLe,
                   LinExpr(b) + big_m * (1.0 - LinExpr(alpha)));
  m.set_objective(Sense::kMaximize, LinExpr(delta));
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 11.0, kTol);
}

TEST(Milp, AssignmentProblem) {
  // 3x3 assignment, minimize cost; optimal = 1 + 2 + 1 = 4 on off-diagonal.
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 1}};
  Model m;
  std::vector<std::vector<VarId>> x(3, std::vector<VarId>(3));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m.add_binary();
    }
  }
  for (int i = 0; i < 3; ++i) {
    LinExpr row, col;
    for (int j = 0; j < 3; ++j) {
      row += LinExpr(x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      col += LinExpr(x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)]);
    }
    m.add_constraint(row, Relation::kEq, 1.0);
    m.add_constraint(col, Relation::kEq, 1.0);
  }
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      obj += cost[i][j] *
             LinExpr(x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  m.set_objective(Sense::kMinimize, obj);
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, kTol);
}

TEST(Milp, NodeLimitYieldsSafeBound) {
  // A knapsack too large to finish in 1 node: bound must still dominate
  // the optimum (maximization -> best_bound >= optimum).
  mcs::support::Rng rng(99);
  Model m;
  LinExpr weight, value;
  for (int i = 0; i < 12; ++i) {
    const VarId v = m.add_binary();
    weight += rng.uniform(1.0, 5.0) * LinExpr(v);
    value += rng.uniform(1.0, 9.0) * LinExpr(v);
  }
  m.add_constraint(weight, Relation::kLe, 12.0);
  m.set_objective(Sense::kMaximize, value);

  const MilpResult full = solve_milp(m);
  ASSERT_EQ(full.status, SolveStatus::kOptimal);

  MilpOptions tight;
  tight.max_nodes = 1;
  const MilpResult limited = solve_milp(m, tight);
  EXPECT_EQ(limited.status, SolveStatus::kNodeLimit);
  EXPECT_GE(limited.best_bound, full.objective - kTol);
}

TEST(Milp, GapTerminationNeverReturnsABoundBelowTheIncumbent) {
  // Fourteen binaries under four knapsack rows, solved at a 0.2% gap
  // without presolve.  The search pops a queued node whose relaxation is
  // integral and better than every node still open; the next loop top is
  // within the gap, and the best open bound (161.528...) lies below the
  // new incumbent (161.53).  A dual bound must not fall below a feasible
  // point, so the reported bound is the incumbent's objective.
  const double value[14] = {37.16, 27.18, 15.01, 6.07, 9.20, 9.11, 13.07,
                            15.11, 22.05, 28.17, 22.07, 10.11, 39.01, 7.14};
  const double rows[4][14] = {
      {5, 5, 6, 0, 7, 8, 0, 0, 5, 0, 0, 0, 3, 3},
      {4, 7, 0, 10, 0, 14, 11, 6, 2, 0, 3, 14, 6, 4},
      {0, 7, 4, 0, 0, 2, 1, 0, 1, 2, 0, 0, 0, 0},
      {2, 9, 14, 0, 14, 10, 0, 4, 14, 8, 4, 0, 0, 8}};
  const double caps[4] = {14.5, 27.5, 5.5, 29.5};
  Model m;
  std::vector<VarId> x;
  LinExpr obj;
  for (std::size_t j = 0; j < 14; ++j) {
    x.push_back(m.add_binary());
    obj += value[j] * LinExpr(x.back());
  }
  m.set_objective(Sense::kMaximize, obj);
  for (std::size_t r = 0; r < 4; ++r) {
    LinExpr lhs;
    for (std::size_t j = 0; j < 14; ++j) {
      if (rows[r][j] != 0) lhs += rows[r][j] * LinExpr(x[j]);
    }
    m.add_constraint(lhs, Relation::kLe, caps[r]);
  }
  MilpOptions opt;
  opt.relative_gap = 0.002;
  opt.use_presolve = false;

  // The stop rule sees the open bound fall below the incumbent.
  bool crossed = false;
  MilpSearch search(m, opt);
  ASSERT_TRUE(search.run([&crossed](const SearchBounds& b) {
    crossed |= b.dual_bound < b.incumbent;
    return false;
  }));
  EXPECT_TRUE(crossed);

  const MilpResult& r = search.result();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(r.gap_terminated);
  EXPECT_NEAR(r.objective, 161.53, 1e-9);
  EXPECT_GE(r.best_bound, r.objective);
}

TEST(Milp, DeterministicAcrossRuns) {
  mcs::support::Rng rng(7);
  Model m;
  LinExpr weight, value;
  for (int i = 0; i < 10; ++i) {
    const VarId v = m.add_binary();
    weight += rng.uniform(1.0, 5.0) * LinExpr(v);
    value += rng.uniform(1.0, 9.0) * LinExpr(v);
  }
  m.add_constraint(weight, Relation::kLe, 10.0);
  m.set_objective(Sense::kMaximize, value);
  const MilpResult r1 = solve_milp(m);
  const MilpResult r2 = solve_milp(m);
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  EXPECT_EQ(r1.objective, r2.objective);
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_EQ(r1.nodes, r2.nodes);
}

// ---------------------------------------------------------------------------
// Property test: B&B equals brute-force enumeration on random small pure
// integer programs.
// ---------------------------------------------------------------------------

/// A random pure integer program with a small finite domain per variable.
Model random_integer_program(std::uint64_t seed) {
  mcs::support::Rng rng(seed * 7919 + 3);
  Model m;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  const std::size_t rows = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  std::vector<VarId> vars;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = rng.uniform_int(-2, 1);
    const auto hi = lo + rng.uniform_int(1, 3);
    vars.push_back(m.add_integer(static_cast<double>(lo),
                                 static_cast<double>(hi)));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    LinExpr lhs;
    for (const VarId v : vars) {
      lhs += rng.uniform(-3.0, 3.0) * LinExpr(v);
    }
    const Relation rel = rng.bernoulli(0.5) ? Relation::kLe : Relation::kGe;
    m.add_constraint(lhs, rel, rng.uniform(-6.0, 6.0));
  }
  LinExpr obj;
  for (const VarId v : vars) {
    obj += rng.uniform(-4.0, 4.0) * LinExpr(v);
  }
  const Sense sense = rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize;
  m.set_objective(sense, obj);
  return m;
}

class MilpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpVsBruteForce, MatchesEnumeration) {
  const Model m = random_integer_program(GetParam());
  bool feasible = false;
  const double expected = brute_force_best(m, feasible);
  const MilpResult r = solve_milp(m);
  if (!feasible) {
    EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(r.status, SolveStatus::kOptimal)
        << "status=" << to_string(r.status);
    EXPECT_NEAR(r.objective, expected, 1e-5);
    EXPECT_TRUE(m.is_feasible(r.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 120));

// ---------------------------------------------------------------------------
// Pause and resume: a search paused at any loop top and then finished is
// the uninterrupted search, bit for bit.
// ---------------------------------------------------------------------------

/// A random 0/1 knapsack, large enough for a real tree.
Model random_knapsack(std::uint64_t seed, int items, double capacity) {
  mcs::support::Rng rng(seed);
  Model m;
  LinExpr weight, value;
  for (int i = 0; i < items; ++i) {
    const VarId v = m.add_binary();
    weight += rng.uniform(1.0, 5.0) * LinExpr(v);
    value += rng.uniform(1.0, 9.0) * LinExpr(v);
  }
  m.add_constraint(weight, Relation::kLe, capacity);
  m.set_objective(Sense::kMaximize, value);
  return m;
}

/// Delay MILP of a generated four-task set over half of one task's period,
/// with the engine's branching priorities.
std::pair<Model, std::vector<int>> delay_milp(std::uint64_t seed) {
  mcs::support::Rng rng(seed * 613 + 29);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.5);
  cfg.gamma = rng.uniform(0.1, 0.4);
  const mcs::rt::TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  const mcs::rt::TaskIndex i = tasks.by_priority().back();
  const mcs::analysis::DelayMilp milp = mcs::analysis::build_delay_milp(
      tasks, i, tasks[i].period / 2, mcs::analysis::FormulationCase::kNls,
      /*ignore_ls=*/true);
  std::vector<int> priority(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) priority[alpha.index] = 1;
  return {milp.model, priority};
}

void expect_same_search(const MilpResult& a, const MilpResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.has_incumbent, b.has_incumbent) << label;
  EXPECT_EQ(a.objective, b.objective) << label;
  EXPECT_EQ(a.best_bound, b.best_bound) << label;
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.nodes, b.nodes) << label;
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned) << label;
  EXPECT_EQ(a.lp_iterations, b.lp_iterations) << label;
  EXPECT_EQ(a.gap_terminated, b.gap_terminated) << label;
}

/// Pauses `model`'s search at every loop top k in turn (and, once, at all
/// of them), finishes it, and compares with the uninterrupted search.  Loop
/// top 0 is the one before presolve.
void expect_resumable(const Model& model, const MilpOptions& opt,
                      const std::string& label) {
  std::size_t tops = 0;
  std::vector<SearchBounds> seen_bounds;
  MilpSearch whole(model, opt);
  ASSERT_TRUE(whole.run([&](const SearchBounds& b) {
    ++tops;
    seen_bounds.push_back(b);
    return false;
  }));
  const MilpResult& want = whole.result();
  expect_same_search(mcs::lp::solve_milp(model, opt), want, label + " plain");

  // Before presolve there is no incumbent and no dual bound, even when a
  // start value will seed one.
  ASSERT_FALSE(seen_bounds.empty()) << label;
  const double inf =
      model.objective_sense() == Sense::kMaximize ? kInfinity : -kInfinity;
  EXPECT_EQ(seen_bounds[0].incumbent, -inf) << label;
  EXPECT_EQ(seen_bounds[0].dual_bound, inf) << label;

  for (std::size_t k = 0; k < tops; ++k) {
    std::size_t seen = 0;
    // The search is resumed after its model is gone: a paused search, at
    // any loop top, keeps its own copy.
    auto owned = std::make_unique<Model>(model);
    MilpSearch search(*owned, opt);
    EXPECT_FALSE(search.run([&seen, k](const SearchBounds&) {
      return seen++ == k;
    })) << label << " k=" << k;
    EXPECT_FALSE(search.finished());
    owned.reset();
    ASSERT_TRUE(search.run());
    expect_same_search(search.result(), want,
                       label + " paused at " + std::to_string(k));
  }

  // Pause at every loop top once: a resumed search passes the top it
  // paused at and stops at the next one.
  MilpSearch stepped(model, opt);
  std::size_t pauses = 0;
  bool fire = false;
  while (!stepped.run([&fire](const SearchBounds&) { return fire = !fire; })) {
    ++pauses;
  }
  EXPECT_EQ(pauses, tops) << label;
  expect_same_search(stepped.result(), want, label + " paused everywhere");
}

TEST(MilpSearch, PausedAndFinishedEqualsUninterrupted) {
  struct Case {
    std::string name;
    Model model;
    std::vector<int> priority;
  };
  std::vector<Case> corpus;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    corpus.push_back({"integer program " + std::to_string(seed),
                      random_integer_program(seed), {}});
  }
  corpus.push_back({"knapsack 99", random_knapsack(99, 12, 12.0), {}});
  corpus.push_back({"knapsack 7", random_knapsack(7, 10, 10.0), {}});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto [model, priority] = delay_milp(seed);
    corpus.push_back({"delay MILP " + std::to_string(seed), std::move(model),
                      std::move(priority)});
  }

  for (const SimplexKernel kernel :
       {SimplexKernel::kSparse, SimplexKernel::kDense}) {
    for (const Case& c : corpus) {
      // Gap 0 proves optimality; a 2% gap exercises the within-gap drops
      // and the gap return (with and without presolve); 20 nodes end some
      // searches at the node limit.
      struct Variant {
        double gap;
        std::size_t nodes;
        bool presolve;
      };
      for (const Variant v : {Variant{0.0, 200000, true},
                              Variant{0.02, 200000, true},
                              Variant{0.02, 200000, false},
                              Variant{0.0, 20, true}}) {
        MilpOptions opt;
        opt.lp.kernel = kernel;
        opt.relative_gap = v.gap;
        opt.max_nodes = v.nodes;
        opt.use_presolve = v.presolve;
        opt.branch_priority = c.priority;
        const std::string label =
            c.name + (kernel == SimplexKernel::kDense ? " dense" : " sparse") +
            " gap=" + std::to_string(v.gap) +
            " nodes=" + std::to_string(v.nodes) +
            (v.presolve ? " presolve" : "");
        expect_resumable(c.model, opt, label);
      }
    }
  }
}

TEST(MilpSearch, PausedSearchOutlivesItsModel) {
  // A paused search keeps what it needs: the caller's model can go away
  // before the search is finished.
  MilpOptions opt;
  const MilpResult want = mcs::lp::solve_milp(random_knapsack(99, 12, 12.0),
                                              opt);
  std::size_t seen = 0;
  auto model = std::make_unique<Model>(random_knapsack(99, 12, 12.0));
  MilpSearch search(*model, opt);
  ASSERT_FALSE(search.run([&seen](const SearchBounds&) { return ++seen == 3; }));
  model.reset();
  ASSERT_TRUE(search.run());
  expect_same_search(search.result(), want, "model dropped while paused");
}

}  // namespace
