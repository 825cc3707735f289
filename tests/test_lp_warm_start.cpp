// Differential tests for the warm-restart simplex path and the
// warm-started branch & bound: whatever the warm machinery does, it must
// agree with a cold solve on status and objective.  A cloned solver must
// repeat its original bit for bit.  Also covers the cached-formulation
// patch path (update_delay_milp) and incumbent seeding.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "analysis/window.hpp"
#include "gen/generator.hpp"
#include "lp/milp.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::build_delay_milp;
using mcs::analysis::DelayMilp;
using mcs::analysis::FormulationCase;
using mcs::analysis::update_delay_milp;
using mcs::lp::Basis;
using mcs::lp::kInfinity;
using mcs::lp::LinExpr;
using mcs::lp::LpSolution;
using mcs::lp::MilpOptions;
using mcs::lp::MilpResult;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::SimplexKernel;
using mcs::lp::SimplexOptions;
using mcs::lp::SimplexSolver;
using mcs::lp::solve_lp;
using mcs::lp::solve_milp;
using mcs::lp::SolveStatus;
using mcs::lp::VarId;
using mcs::rt::Task;
using mcs::rt::TaskIndex;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::support::Rng;

constexpr double kTol = 1e-6;

/// Objective agreement scaled to the magnitude of the problem.
void expect_same_optimum(const LpSolution& warm, const LpSolution& cold,
                         const char* label) {
  ASSERT_EQ(warm.status, cold.status) << label;
  if (cold.status != SolveStatus::kOptimal) return;
  const double scale = std::max(1.0, std::abs(cold.objective));
  EXPECT_NEAR(warm.objective, cold.objective, kTol * scale) << label;
}

/// A random bounded LP: every variable has a finite lower bound (the
/// warm-boundable column shape) and most have finite uppers.
Model random_bounded_lp(Rng& rng, std::size_t vars, std::size_t rows) {
  Model m;
  std::vector<VarId> xs;
  for (std::size_t v = 0; v < vars; ++v) {
    const double lo = static_cast<double>(rng.uniform_int(0, 3));
    const double hi = lo + static_cast<double>(rng.uniform_int(1, 8));
    xs.push_back(m.add_continuous(
        lo, hi, std::string("x").append(std::to_string(v))));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    LinExpr lhs;
    for (const VarId x : xs) {
      if (rng.uniform01() < 0.6) {
        lhs += static_cast<double>(rng.uniform_int(-4, 6)) * LinExpr(x);
      }
    }
    const double rhs = static_cast<double>(rng.uniform_int(0, 40));
    const double roll = rng.uniform01();
    const Relation rel = roll < 0.5 ? Relation::kLe
                         : roll < 0.8 ? Relation::kGe
                                      : Relation::kEq;
    lhs += LinExpr(1.0 * static_cast<double>(rng.uniform_int(0, 2)));
    m.add_constraint(lhs, rel, rhs);
  }
  LinExpr obj;
  for (const VarId x : xs) {
    obj += static_cast<double>(rng.uniform_int(-5, 5)) * LinExpr(x);
  }
  m.set_objective(rng.uniform01() < 0.5 ? Sense::kMinimize : Sense::kMaximize,
                  obj);
  return m;
}

/// One link of a bound-change chain: new bounds for one variable, then a
/// warm solve, from the solver's last optimal basis when `from_parent` and
/// there is one.
struct BoundStep {
  std::size_t var = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool from_parent = false;
};

/// A branch & bound dive on `base`: bound tightenings with the occasional
/// relaxation back to the model's range.
std::vector<BoundStep> tightening_chain(Rng& rng, const Model& base,
                                        std::size_t steps) {
  const auto vars = static_cast<std::int64_t>(base.num_variables());
  std::vector<BoundStep> chain;
  for (std::size_t step = 0; step < steps; ++step) {
    BoundStep s;
    s.var = static_cast<std::size_t>(rng.uniform_int(0, vars - 1));
    const double model_lo = base.variables()[s.var].lower;
    const double model_hi = base.variables()[s.var].upper;
    s.lo = static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(model_lo),
                        static_cast<std::int64_t>(model_hi)));
    s.hi = static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(s.lo),
                        static_cast<std::int64_t>(model_hi)));
    if (rng.uniform01() < 0.25) {  // relax back to the root range
      s.lo = model_lo;
      s.hi = model_hi;
    }
    s.from_parent = rng.uniform01() < 0.5;
    chain.push_back(s);
  }
  return chain;
}

/// The root of a random delay MILP as branch & bound sees it: every
/// integral variable clamped to its finite range.  `ints` receives the
/// integral variables.
Model random_delay_root(Rng& rng, std::vector<std::size_t>& ints) {
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.5);
  cfg.gamma = rng.uniform(0.1, 0.4);
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    tasks[j].latency_sensitive = rng.uniform01() < 0.5;
  }
  const auto i =
      static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
  const Time t = tasks[i].period;
  const DelayMilp milp = build_delay_milp(tasks, i, t, FormulationCase::kNls,
                                          /*ignore_ls=*/false);
  Model root = milp.model;
  ints.clear();
  for (std::size_t v = 0; v < root.num_variables(); ++v) {
    if (root.variables()[v].type != mcs::lp::VarType::kContinuous) {
      ints.push_back(v);
      root.set_bounds(VarId{v}, std::ceil(root.variables()[v].lower),
                      std::floor(root.variables()[v].upper));
    }
  }
  return root;
}

/// 0/1 fixes of `root`'s integral variables, as branching makes them,
/// with the occasional release back to the root range.
std::vector<BoundStep> fixing_chain(Rng& rng, const Model& root,
                                    const std::vector<std::size_t>& ints,
                                    std::size_t steps) {
  std::vector<BoundStep> chain;
  for (std::size_t step = 0; step < steps; ++step) {
    BoundStep s;
    s.var = ints[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ints.size()) - 1))];
    const double root_lo = root.variables()[s.var].lower;
    const double root_hi = root.variables()[s.var].upper;
    s.lo = root_lo;
    s.hi = root_hi;
    if (rng.uniform01() < 0.7) {  // fix to one endpoint, as branching does
      s.lo = s.hi = rng.uniform01() < 0.5 ? root_lo : root_hi;
    }
    s.from_parent = rng.uniform01() < 0.5;
    chain.push_back(s);
  }
  return chain;
}

/// Applies `step` to `solver` and warm-solves; `parent` holds the solver's
/// last optimal basis.
LpSolution take_step(SimplexSolver& solver, const BoundStep& step,
                     Basis& parent) {
  solver.set_bounds(VarId{step.var}, step.lo, step.hi);
  const LpSolution sol = solver.solve_warm(
      step.from_parent && !parent.empty() ? &parent : nullptr);
  if (sol.status == SolveStatus::kOptimal) {
    parent = solver.basis();
  }
  return sol;
}

/// Drives a warm solver and cold re-solves of a tracking model through
/// `chain`; every step must agree on status and objective.
void expect_chain_matches_cold(const Model& base,
                               const std::vector<BoundStep>& chain,
                               const char* label) {
  SimplexSolver warm_solver(base);
  Model cold_model = base;  // tracks the same bound changes
  Basis parent;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const LpSolution warm = take_step(warm_solver, chain[k], parent);
    cold_model.set_bounds(VarId{chain[k].var}, chain[k].lo, chain[k].hi);
    const LpSolution cold = solve_lp(cold_model);
    expect_same_optimum(
        warm, cold,
        std::string(label).append(" step ").append(std::to_string(k)).c_str());
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const LpSolution& a, const LpSolution& b,
                      const std::string& label) {
  ASSERT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_TRUE(same_bits(a.objective, b.objective))
      << label << ": " << a.objective << " vs " << b.objective;
  ASSERT_EQ(a.values.size(), b.values.size()) << label;
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    EXPECT_TRUE(same_bits(a.values[v], b.values[v]))
        << label << " value " << v << ": " << a.values[v] << " vs "
        << b.values[v];
  }
}

/// The counters of `stats` in a fixed order, for whole-struct comparisons.
std::vector<std::size_t> counters(const mcs::lp::SimplexStats& stats) {
  return {stats.cold_solves,  stats.warm_solves,      stats.warm_fallbacks,
          stats.cold_pivots,  stats.warm_pivots,      stats.refactorizations,
          stats.eta_nnz,      stats.bound_flips,      stats.devex_resets,
          stats.fixed_cols_skipped};
}

/// Clones a solver after step `clone_after` of `chain` and feeds both the
/// rest: every solution must be bit-identical, the clone's stats must
/// start at zero and then count exactly the original's further work.
void expect_clone_repeats_original(const Model& model,
                                   const std::vector<BoundStep>& chain,
                                   SimplexKernel kernel,
                                   std::size_t clone_after,
                                   const std::string& label) {
  SimplexOptions opt;
  opt.kernel = kernel;
  SimplexSolver original(model, opt);
  Basis parent;
  for (std::size_t k = 0; k <= clone_after; ++k) {
    take_step(original, chain[k], parent);
  }
  const std::unique_ptr<SimplexSolver> clone = original.clone();
  const std::vector<std::size_t> zero(counters(clone->stats()).size(), 0);
  EXPECT_EQ(counters(clone->stats()), zero) << label;
  const std::vector<std::size_t> before = counters(original.stats());
  Basis clone_parent = parent;
  for (std::size_t k = clone_after + 1; k < chain.size(); ++k) {
    const LpSolution a = take_step(original, chain[k], parent);
    const LpSolution b = take_step(*clone, chain[k], clone_parent);
    expect_identical(a, b, label + " step " + std::to_string(k));
    if (::testing::Test::HasFailure()) return;
  }
  const std::vector<std::size_t> after = counters(original.stats());
  std::vector<std::size_t> delta(after.size());
  for (std::size_t c = 0; c < after.size(); ++c) {
    delta[c] = after[c] - before[c];
  }
  EXPECT_EQ(counters(clone->stats()), delta) << label;
}

/// Runs `chain` on a `from`-kernel solver and tracks its bounds on a solved
/// `to`-kernel solver; after every optimal step the `to` solver warm-starts
/// from the `from` solver's basis snapshot.  Both kernels index one column
/// space, so the snapshot is an optimal basis for the `to` solver as well:
/// it must reach the same certified optimum, and when `stays_warm` without
/// falling back to a cold solve.
void expect_snapshot_crosses_kernels(const Model& model,
                                     const std::vector<BoundStep>& chain,
                                     SimplexKernel from, SimplexKernel to,
                                     bool stays_warm,
                                     const std::string& label) {
  SimplexOptions from_opt;
  from_opt.kernel = from;
  SimplexOptions to_opt;
  to_opt.kernel = to;
  SimplexSolver source(model, from_opt);
  SimplexSolver target(model, to_opt);
  target.solve();  // a warm start needs a solved target
  Basis parent;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const std::string at = label + " step " + std::to_string(k);
    const LpSolution want = take_step(source, chain[k], parent);
    target.set_bounds(VarId{chain[k].var}, chain[k].lo, chain[k].hi);
    if (want.status != SolveStatus::kOptimal) continue;
    const Basis snapshot = source.basis();
    const std::size_t fallbacks = target.stats().warm_fallbacks;
    const LpSolution got = target.solve_warm(&snapshot);
    ASSERT_EQ(got.status, SolveStatus::kOptimal) << at;
    if (stays_warm) {
      EXPECT_EQ(target.stats().warm_fallbacks, fallbacks) << at;
    }
    const double scale = std::max(1.0, std::abs(want.objective));
    EXPECT_NEAR(got.objective, want.objective, 1e-9 * scale) << at;
  }
}

class WarmVsCold : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WarmVsCold, RandomBoundedLpBoundChangeChains) {
  Rng rng(GetParam() * 131 + 7);
  const std::size_t vars = 3 + GetParam() % 6;
  const std::size_t rows = 2 + GetParam() % 5;
  const Model base = random_bounded_lp(rng, vars, rows);
  expect_chain_matches_cold(base, tightening_chain(rng, base, 25),
                            "tightening");
}

TEST_P(WarmVsCold, DelayMilpRelaxationFixChains) {
  Rng rng(GetParam() * 977 + 3);
  std::vector<std::size_t> ints;
  const Model root = random_delay_root(rng, ints);
  ASSERT_FALSE(ints.empty());
  expect_chain_matches_cold(root, fixing_chain(rng, root, ints, 30),
                            "relaxation");
}

TEST_P(WarmVsCold, CloneRepeatsTheOriginalBitForBit) {
  Rng rng(GetParam() * 53 + 19);
  const Model lp = random_bounded_lp(rng, 3 + GetParam() % 6,
                                     2 + GetParam() % 5);
  std::vector<std::size_t> ints;
  const Model root = random_delay_root(rng, ints);
  ASSERT_FALSE(ints.empty());
  const std::vector<BoundStep> tightening = tightening_chain(rng, lp, 25);
  const std::vector<BoundStep> fixing = fixing_chain(rng, root, ints, 30);
  for (const SimplexKernel kernel :
       {SimplexKernel::kSparse, SimplexKernel::kDense}) {
    const std::string k =
        kernel == SimplexKernel::kSparse ? "sparse" : "dense";
    for (const std::size_t at :
         {std::size_t{0}, std::size_t{8}, std::size_t{16}}) {
      const std::string when = " clone after step " + std::to_string(at);
      expect_clone_repeats_original(lp, tightening, kernel, at,
                                    k + " tightening" + when);
      expect_clone_repeats_original(root, fixing, kernel, at,
                                    k + " fixing" + when);
    }
  }
}

TEST_P(WarmVsCold, BasisSnapshotCrossesKernels) {
  Rng rng(GetParam() * 71 + 29);
  const Model lp = random_bounded_lp(rng, 3 + GetParam() % 6,
                                     2 + GetParam() % 5);
  std::vector<std::size_t> ints;
  const Model root = random_delay_root(rng, ints);
  ASSERT_FALSE(ints.empty());
  const std::vector<BoundStep> tightening = tightening_chain(rng, lp, 25);
  const std::vector<BoundStep> fixing = fixing_chain(rng, root, ints, 30);
  expect_snapshot_crosses_kernels(lp, tightening, SimplexKernel::kSparse,
                                  SimplexKernel::kDense, /*stays_warm=*/true,
                                  "sparse -> dense tightening");
  // A sparse snapshot lists its basis in LU order, not in the rows the
  // dense tableau would pivot it into; the dense crash places each column
  // in a free row where its pivot is usable, so it skips no row.
  expect_snapshot_crosses_kernels(root, fixing, SimplexKernel::kSparse,
                                  SimplexKernel::kDense, /*stays_warm=*/true,
                                  "sparse -> dense fixing");
  expect_snapshot_crosses_kernels(lp, tightening, SimplexKernel::kDense,
                                  SimplexKernel::kSparse, /*stays_warm=*/true,
                                  "dense -> sparse tightening");
  expect_snapshot_crosses_kernels(root, fixing, SimplexKernel::kDense,
                                  SimplexKernel::kSparse, /*stays_warm=*/true,
                                  "dense -> sparse fixing");
}

TEST_P(WarmVsCold, BranchAndBoundSameOptimumWarmOnAndOff) {
  Rng rng(GetParam() * 313 + 11);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.5);
  cfg.gamma = rng.uniform(0.1, 0.4);
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    tasks[j].latency_sensitive = rng.uniform01() < 0.4;
  }
  const auto i =
      static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
  // Half-period window: full-period NLS instances at this utilization can
  // take minutes to prove optimal, which is tree size, not coverage — the
  // warm/cold agreement being tested is exercised on any nontrivial tree.
  const DelayMilp milp =
      build_delay_milp(tasks, i, tasks[i].period / 2, FormulationCase::kNls,
                       /*ignore_ls=*/false);

  MilpOptions opt;
  opt.relative_gap = 0.0;  // prove optimality: the optimum value is unique
  opt.max_nodes = 50000;
  // Branch the Constraint 13 selectors first, exactly as the analysis
  // configures its solves — without this, proving optimality is orders of
  // magnitude slower and the test would time out.
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }
  opt.use_warm_start = true;
  const MilpResult warm = solve_milp(milp.model, opt);
  opt.use_warm_start = false;
  const MilpResult cold = solve_milp(milp.model, opt);

  ASSERT_EQ(warm.status, cold.status);
  if (cold.status != SolveStatus::kOptimal) return;
  ASSERT_TRUE(warm.has_incumbent);
  ASSERT_TRUE(cold.has_incumbent);
  const double scale = std::max(1.0, std::abs(cold.objective));
  EXPECT_NEAR(warm.objective, cold.objective, kTol * scale);
  EXPECT_NEAR(warm.best_bound, cold.best_bound, kTol * scale);
  EXPECT_TRUE(milp.model.is_feasible(warm.values, 1e-6));
  EXPECT_TRUE(milp.model.is_feasible(cold.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmVsCold,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(MilpStartValues, FeasibleIncumbentSeedsTheSearch) {
  // max x + y, x,y integer in [0,5], x + y <= 7.
  Model m;
  const VarId x = m.add_integer(0, 5, "x");
  const VarId y = m.add_integer(0, 5, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 7.0);
  m.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(y));

  MilpOptions opt;
  opt.start_values = {2.0, 5.0};  // feasible, objective 7 = optimum
  const MilpResult res = solve_milp(m, opt);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 7.0, kTol);
}

TEST(MilpStartValues, InfeasibleOrFractionalSeedIsIgnored) {
  Model m;
  const VarId x = m.add_integer(0, 5, "x");
  const VarId y = m.add_integer(0, 5, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 7.0);
  m.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(y));

  MilpOptions opt;
  opt.start_values = {9.0, 9.0};  // violates bounds and the constraint
  MilpResult res = solve_milp(m, opt);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 7.0, kTol);

  opt.start_values = {0.5, 0.5};  // fractional: must not become incumbent
  res = solve_milp(m, opt);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 7.0, kTol);
}

Task make_task(std::string name, Time exec, Time mem, Time period,
               Time deadline, mcs::rt::Priority priority, bool ls = false) {
  Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = mem;
  t.copy_out = mem;
  t.period = period;
  t.deadline = deadline;
  t.priority = priority;
  t.latency_sensitive = ls;
  return t;
}

TEST(UpdateDelayMilp, PatchEqualsRebuild) {
  const TaskSet tasks({make_task("s", 2, 1, 30, 10, 0, true),
                       make_task("a", 4, 2, 40, 30, 1),
                       make_task("b", 3, 1, 50, 45, 2),
                       make_task("c", 5, 2, 80, 70, 3)});
  // Case (b) always has two intervals, so any pair of window lengths is a
  // legal patch target; budgets and the cancellation budget change with t.
  const TaskIndex i = 0;
  for (const Time t0 : {Time{5}, Time{40}}) {
    DelayMilp cached =
        build_delay_milp(tasks, i, t0, FormulationCase::kLsCaseB);
    for (const Time t1 : {Time{0}, Time{35}, Time{90}, Time{160}}) {
      update_delay_milp(cached, tasks, i, t1);
      const DelayMilp fresh =
          build_delay_milp(tasks, i, t1, FormulationCase::kLsCaseB);
      ASSERT_EQ(cached.model.num_constraints(),
                fresh.model.num_constraints());
      for (std::size_t c = 0; c < fresh.model.num_constraints(); ++c) {
        EXPECT_DOUBLE_EQ(cached.model.row(c).rhs,
                         fresh.model.row(c).rhs)
            << "t0=" << t0 << " t1=" << t1 << " constraint " << c;
      }
      const MilpResult a = solve_milp(cached.model);
      const MilpResult b = solve_milp(fresh.model);
      ASSERT_EQ(a.status, b.status);
      EXPECT_NEAR(a.objective, b.objective, kTol);
    }
  }
}

TEST(UpdateDelayMilp, PatchMatchesRebuildAcrossGrowingWindows) {
  // NLS case: find two window lengths with the same interval count and
  // check the patched model solves to the rebuilt model's optimum.
  const TaskSet tasks({make_task("s", 2, 1, 30, 10, 0, true),
                       make_task("a", 4, 2, 40, 30, 1),
                       make_task("b", 3, 1, 50, 45, 2),
                       make_task("c", 5, 2, 80, 70, 3)});
  const TaskIndex i = 2;
  const Time t0 = 20;
  const std::size_t n0 =
      mcs::analysis::window_intervals_nls(tasks, i, t0);
  Time t1 = t0 + 1;
  while (mcs::analysis::window_intervals_nls(tasks, i, t1) == n0) {
    ++t1;
  }
  --t1;  // largest window with the same interval count
  ASSERT_GT(t1, t0);

  DelayMilp cached = build_delay_milp(tasks, i, t0, FormulationCase::kNls);
  update_delay_milp(cached, tasks, i, t1);
  const DelayMilp fresh =
      build_delay_milp(tasks, i, t1, FormulationCase::kNls);
  ASSERT_EQ(cached.model.num_constraints(), fresh.model.num_constraints());
  for (std::size_t c = 0; c < fresh.model.num_constraints(); ++c) {
    EXPECT_DOUBLE_EQ(cached.model.row(c).rhs,
                     fresh.model.row(c).rhs)
        << "constraint " << c;
  }
  const MilpResult a = solve_milp(cached.model);
  const MilpResult b = solve_milp(fresh.model);
  ASSERT_EQ(a.status, b.status);
  EXPECT_NEAR(a.objective, b.objective, kTol);
}

}  // namespace
