// Differential tests for the warm-restart simplex path and the
// warm-started branch & bound: whatever the warm machinery does, it must
// agree with a cold solve on status and objective.  Also covers the
// cached-formulation patch path (update_delay_milp) and incumbent seeding.
#include <gtest/gtest.h>

#include <cmath>
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

class WarmVsCold : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WarmVsCold, RandomBoundedLpBoundChangeChains) {
  Rng rng(GetParam() * 131 + 7);
  const std::size_t vars = 3 + GetParam() % 6;
  const std::size_t rows = 2 + GetParam() % 5;
  Model base = random_bounded_lp(rng, vars, rows);

  SimplexSolver warm_solver(base);
  Model cold_model = base;  // tracks the same bound changes

  // Mimic a branch & bound dive: a chain of bound tightenings with the
  // occasional relaxation back to a wider range, warm-solving after each.
  std::vector<std::pair<double, double>> current;
  for (std::size_t v = 0; v < vars; ++v) {
    current.emplace_back(base.variables()[v].lower,
                         base.variables()[v].upper);
  }
  Basis parent;
  for (std::size_t step = 0; step < 25; ++step) {
    const std::size_t v =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(vars) - 1));
    const auto [model_lo, model_hi] =
        std::pair(base.variables()[v].lower, base.variables()[v].upper);
    double lo = static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(model_lo),
                        static_cast<std::int64_t>(model_hi)));
    double hi = static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(model_hi)));
    if (rng.uniform01() < 0.25) {  // relax back to the root range
      lo = model_lo;
      hi = model_hi;
    }
    warm_solver.set_bounds(VarId{v}, lo, hi);
    cold_model.set_bounds(VarId{v}, lo, hi);
    current[v] = {lo, hi};

    const LpSolution warm = warm_solver.solve_warm(
        parent.empty() || rng.uniform01() < 0.5 ? nullptr : &parent);
    const LpSolution cold = solve_lp(cold_model);
    expect_same_optimum(warm, cold,
                        ("step " + std::to_string(step)).c_str());
    if (warm.status == SolveStatus::kOptimal) {
      parent = warm_solver.basis();
    }
  }
}

TEST_P(WarmVsCold, DelayMilpRelaxationFixChains) {
  Rng rng(GetParam() * 977 + 3);
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
  DelayMilp milp = build_delay_milp(tasks, i, t, FormulationCase::kNls,
                                    /*ignore_ls=*/false);

  // Clamp every integral variable to its (finite) root range in a copy —
  // the same transformation branch & bound performs — then drive a chain
  // of 0/1 fixes through warm and cold solvers.
  Model root = milp.model;
  std::vector<std::size_t> ints;
  for (std::size_t v = 0; v < root.num_variables(); ++v) {
    if (root.variables()[v].type != mcs::lp::VarType::kContinuous) {
      ints.push_back(v);
      root.set_bounds(VarId{v}, std::ceil(root.variables()[v].lower),
                      std::floor(root.variables()[v].upper));
    }
  }
  ASSERT_FALSE(ints.empty());

  SimplexSolver warm_solver(root);
  Model cold_model = root;
  Basis parent;
  for (std::size_t step = 0; step < 30; ++step) {
    const std::size_t v = ints[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ints.size()) - 1))];
    const double root_lo = root.variables()[v].lower;
    const double root_hi = root.variables()[v].upper;
    double lo = root_lo;
    double hi = root_hi;
    if (rng.uniform01() < 0.7) {  // fix to one endpoint, as branching does
      lo = hi = rng.uniform01() < 0.5 ? root_lo : root_hi;
    }
    warm_solver.set_bounds(VarId{v}, lo, hi);
    cold_model.set_bounds(VarId{v}, lo, hi);

    const LpSolution warm = warm_solver.solve_warm(
        parent.empty() || rng.uniform01() < 0.5 ? nullptr : &parent);
    const LpSolution cold = solve_lp(cold_model);
    expect_same_optimum(warm, cold,
                        ("relaxation step " + std::to_string(step)).c_str());
    if (warm.status == SolveStatus::kOptimal) {
      parent = warm_solver.basis();
    }
  }
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
        EXPECT_DOUBLE_EQ(cached.model.constraints()[c].rhs,
                         fresh.model.constraints()[c].rhs)
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
    EXPECT_DOUBLE_EQ(cached.model.constraints()[c].rhs,
                     fresh.model.constraints()[c].rhs)
        << "constraint " << c;
  }
  const MilpResult a = solve_milp(cached.model);
  const MilpResult b = solve_milp(fresh.model);
  ASSERT_EQ(a.status, b.status);
  EXPECT_NEAR(a.objective, b.objective, kTol);
}

}  // namespace
