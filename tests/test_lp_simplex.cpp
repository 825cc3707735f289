#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace {

using mcs::lp::kInfinity;
using mcs::lp::LinExpr;
using mcs::lp::LpSolution;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::SimplexKernel;
using mcs::lp::SimplexOptions;
using mcs::lp::SimplexSolver;
using mcs::lp::solve_lp;
using mcs::lp::SolveStatus;
using mcs::lp::VarId;
using mcs::support::ContractViolation;

constexpr double kTol = 1e-6;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), z = 36.
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x), Relation::kLe, 4.0);
  m.add_constraint(2.0 * LinExpr(y), Relation::kLe, 12.0);
  m.add_constraint(3.0 * LinExpr(x) + 2.0 * LinExpr(y), Relation::kLe, 18.0);
  m.set_objective(Sense::kMaximize, 3.0 * LinExpr(x) + 5.0 * LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 36.0, kTol);
  EXPECT_NEAR(sol.values[x.index], 2.0, kTol);
  EXPECT_NEAR(sol.values[y.index], 6.0, kTol);
}

TEST(Simplex, MinimizationWithGeRows) {
  // min 2x + 3y  s.t. x + y >= 4, x + 2y >= 6  ->  (2, 2), z = 10.
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kGe, 4.0);
  m.add_constraint(LinExpr(x) + 2.0 * LinExpr(y), Relation::kGe, 6.0);
  m.set_objective(Sense::kMinimize, 2.0 * LinExpr(x) + 3.0 * LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, kTol);
  EXPECT_NEAR(sol.values[x.index], 2.0, kTol);
  EXPECT_NEAR(sol.values[y.index], 2.0, kTol);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y  s.t. x + y = 5, x - y = 1  ->  (3, 2), z = 5.
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kEq, 5.0);
  m.add_constraint(LinExpr(x) - LinExpr(y), Relation::kEq, 1.0);
  m.set_objective(Sense::kMinimize, LinExpr(x) + LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[x.index], 3.0, kTol);
  EXPECT_NEAR(sol.values[y.index], 2.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  m.add_constraint(LinExpr(x), Relation::kGe, 5.0);
  m.add_constraint(LinExpr(x), Relation::kLe, 3.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, IllScaledFeasibleModelIsNotDeclaredInfeasible) {
  // Regression: the phase-1 infeasibility gate used to be absolute
  // (feasibility_tol * 10) while every other termination test in the solver
  // scales with the data, so a feasible model with 1e9-scale right-hand
  // sides could be declared infeasible on residuals that are pure noise at
  // its magnitude.  Each tiny equality below keeps its artificial stuck
  // basic at 3e-8 (the 5e-10 coefficient sits under both pivot_tol and
  // reduced_cost_tol), which is legal per-row; the sum 40 * 3e-8 = 1.2e-6
  // crossed the old absolute gate even though the model is exactly
  // feasible (x = 1.5e9, every y = 60).
  Model m;
  const VarId x = m.add_continuous(0.0, 2e9, "x");
  m.add_constraint(LinExpr(x), Relation::kEq, 1.5e9);
  for (int i = 0; i < 40; ++i) {
    const VarId y = m.add_continuous(0.0, 1e6, "y");
    m.add_constraint(term(y, 5e-10), Relation::kEq, 3e-8);
  }
  m.set_objective(Sense::kMinimize, LinExpr(x));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[x.index], 1.5e9, 1.0);
}

TEST(Simplex, IllScaledInfeasibleModelIsStillDetected) {
  // Companion to the feasible regression above: the phase-1 gate is
  // scale-relative but capped, so rhs magnitudes around 1e9 must not push
  // the threshold past tick scale and swallow a genuine (>= 1 tick)
  // infeasibility.  Uncapped, feasibility_tol * 10 * rhs_scale would be
  // ~1500 here and the 4-tick gap between the two rows would pass as
  // phase-1 noise.
  Model m;
  const VarId x = m.add_continuous(0.0, 2e9, "x");
  m.add_constraint(LinExpr(x), Relation::kGe, 1.5e9 + 2.0);
  m.add_constraint(LinExpr(x), Relation::kLe, 1.5e9 - 2.0);
  m.set_objective(Sense::kMinimize, LinExpr(x));
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) - LinExpr(y), Relation::kLe, 1.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, VariableUpperBoundsRespected) {
  // max x + y with x <= 2 (bound), x + y <= 3.
  Model m;
  const VarId x = m.add_continuous(0, 2, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 3.0);
  m.set_objective(Sense::kMaximize, 2.0 * LinExpr(x) + LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[x.index], 2.0, kTol);
  EXPECT_NEAR(sol.values[y.index], 1.0, kTol);
  EXPECT_NEAR(sol.objective, 5.0, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x >= -5, y >= -3, x + y >= -6  ->  z = -6 on the row.
  Model m;
  const VarId x = m.add_continuous(-5, kInfinity, "x");
  const VarId y = m.add_continuous(-3, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kGe, -6.0);
  m.set_objective(Sense::kMinimize, LinExpr(x) + LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -6.0, kTol);
}

TEST(Simplex, FreeVariables) {
  // min x subject to x >= -7 expressed through a constraint on a free var.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity, "x");
  m.add_constraint(LinExpr(x), Relation::kGe, -7.0);
  m.set_objective(Sense::kMinimize, LinExpr(x));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -7.0, kTol);
}

TEST(Simplex, UpperBoundedOnlyVariable) {
  // max x with x <= 9 and no lower bound, plus x >= 0 via constraint.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, 9, "x");
  m.add_constraint(LinExpr(x), Relation::kGe, 0.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 9.0, kTol);
}

TEST(Simplex, FixedVariablesContribute) {
  Model m;
  const VarId x = m.add_continuous(3, 3, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 5.0);
  m.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[x.index], 3.0, kTol);
  EXPECT_NEAR(sol.values[y.index], 2.0, kTol);
}

TEST(Simplex, NoConstraintsBoundFlipOnly) {
  Model m;
  const VarId x = m.add_continuous(1, 4, "x");
  const VarId y = m.add_continuous(-2, 5, "y");
  m.set_objective(Sense::kMaximize, LinExpr(x) - 2.0 * LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.values[x.index], 4.0, kTol);
  EXPECT_NEAR(sol.values[y.index], -2.0, kTol);
  EXPECT_NEAR(sol.objective, 8.0, kTol);
}

TEST(Simplex, ObjectiveConstantCarriedThrough) {
  Model m;
  const VarId x = m.add_continuous(0, 2, "x");
  m.set_objective(Sense::kMaximize, LinExpr(x) + 10.0);
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, kTol);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 1.0);
  m.add_constraint(LinExpr(x), Relation::kLe, 1.0);
  m.add_constraint(LinExpr(y), Relation::kLe, 1.0);
  m.add_constraint(2.0 * LinExpr(x) + 2.0 * LinExpr(y), Relation::kLe, 2.0);
  m.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(y));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, kTol);
}

TEST(Simplex, RedundantEqualityRows) {
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kEq, 4.0);
  m.add_constraint(2.0 * LinExpr(x) + 2.0 * LinExpr(y), Relation::kEq, 8.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, kTol);
}

TEST(Simplex, SolutionSatisfiesModel) {
  Model m;
  const VarId a = m.add_continuous(0, 6, "a");
  const VarId b = m.add_continuous(1, 8, "b");
  const VarId c = m.add_continuous(-2, 2, "c");
  m.add_constraint(LinExpr(a) + LinExpr(b) + LinExpr(c), Relation::kLe, 9.0);
  m.add_constraint(LinExpr(a) - LinExpr(c), Relation::kGe, 1.0);
  m.add_constraint(LinExpr(b) + 0.5 * LinExpr(c), Relation::kEq, 4.0);
  m.set_objective(Sense::kMaximize,
                  LinExpr(a) + 2.0 * LinExpr(b) + 0.5 * LinExpr(c));
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.is_feasible(sol.values, 1e-6));
}

TEST(Simplex, SetBoundsContractHoldsOnBothKernels) {
  // max x + y - f + u  s.t. x + y <= 6, f >= -1;  x in [0, 4], y in [1, 5],
  // f free (two split columns), u <= 3 (one upper-shifted column)
  //   ->  z = 6 + 1 + 3 = 10.
  Model m;
  const VarId x = m.add_continuous(0, 4, "x");
  const VarId y = m.add_continuous(1, 5, "y");
  const VarId f = m.add_continuous(-kInfinity, kInfinity, "f");
  const VarId u = m.add_continuous(-kInfinity, 3, "u");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 6.0);
  m.add_constraint(LinExpr(f), Relation::kGe, -1.0);
  m.set_objective(Sense::kMaximize,
                  LinExpr(x) + LinExpr(y) - LinExpr(f) + LinExpr(u));
  for (const SimplexKernel kernel :
       {SimplexKernel::kSparse, SimplexKernel::kDense}) {
    SCOPED_TRACE(kernel == SimplexKernel::kSparse ? "sparse" : "dense");
    SimplexOptions opt;
    opt.kernel = kernel;
    SimplexSolver solver(m, opt);
    const auto expect_rejected = [&] {
      EXPECT_THROW(solver.set_bounds(VarId{4}, 0.0, 1.0), ContractViolation)
          << "unknown variable";
      EXPECT_THROW(solver.set_bounds(x, 3.0, 2.0), ContractViolation)
          << "lower > upper";
      EXPECT_THROW(solver.set_bounds(x, -kInfinity, 2.0), ContractViolation)
          << "infinite lower bound";
      EXPECT_THROW(solver.set_bounds(f, 0.0, 1.0), ContractViolation)
          << "free (split) variable";
      EXPECT_THROW(solver.set_bounds(u, 0.0, 1.0), ContractViolation)
          << "upper-shifted variable";
    };
    expect_rejected();  // before the first solve
    LpSolution sol = solver.solve();
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 10.0, kTol);
    expect_rejected();  // with a basis to warm-start from
    sol = solver.solve_warm();
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 10.0, kTol);
    // The rejected calls left the bounds alone; a legal one still applies.
    solver.set_bounds(x, 0.0, 0.5);
    sol = solver.solve_warm();
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 9.5, kTol);
    sol = solver.solve();
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 9.5, kTol);
  }
}

// ---------------------------------------------------------------------------
// Property test: on random LPs with box bounds only, the optimum must match
// the analytic per-variable bound solution; with one coupling row, the
// simplex answer must be feasible and at least as good as greedy rounding.
// ---------------------------------------------------------------------------

class SimplexRandomBox : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomBox, MatchesAnalyticBoxOptimum) {
  mcs::support::Rng rng(GetParam());
  Model m;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 8));
  std::vector<VarId> vars;
  LinExpr obj;
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-10.0, 0.0);
    const double hi = lo + rng.uniform(0.0, 10.0);
    const double coef = rng.uniform(-5.0, 5.0);
    const VarId v = m.add_continuous(
        lo, hi, std::string("v").append(std::to_string(i)));
    vars.push_back(v);
    obj += coef * LinExpr(v);
    expected += coef >= 0.0 ? coef * hi : coef * lo;
  }
  m.set_objective(Sense::kMaximize, obj);
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomBox,
                         ::testing::Range<std::uint64_t>(0, 25));

class SimplexRandomFeasibility
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomFeasibility, OptimalSolutionsAreFeasible) {
  mcs::support::Rng rng(GetParam() + 1000);
  Model m;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const std::size_t rows = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  std::vector<VarId> vars;
  for (std::size_t i = 0; i < n; ++i) {
    vars.push_back(m.add_continuous(0.0, rng.uniform(0.5, 10.0)));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    LinExpr lhs;
    for (const VarId v : vars) {
      lhs += rng.uniform(0.0, 3.0) * LinExpr(v);
    }
    // rhs >= 0 keeps the origin feasible so the LP is always feasible.
    m.add_constraint(lhs, Relation::kLe, rng.uniform(0.0, 20.0));
  }
  LinExpr obj;
  for (const VarId v : vars) {
    obj += rng.uniform(-2.0, 4.0) * LinExpr(v);
  }
  m.set_objective(Sense::kMaximize, obj);
  const LpSolution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.is_feasible(sol.values, 1e-6));
  // The optimum cannot be worse than the all-zero solution.
  EXPECT_GE(sol.objective, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomFeasibility,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
