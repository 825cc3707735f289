#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace {

using mcs::lp::LinExpr;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::Term;
using mcs::lp::term;
using mcs::lp::VarId;
using mcs::lp::VarType;
using mcs::support::ContractViolation;

TEST(LinExpr, ArithmeticComposition) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  const VarId y = m.add_continuous(0, 10, "y");
  LinExpr e = 2.0 * LinExpr(x) + term(y, 3.0) - 1.0;
  const LinExpr n = e.normalized();
  ASSERT_EQ(n.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(n.constant(), -1.0);
  EXPECT_DOUBLE_EQ(m.evaluate(n, {1.0, 2.0}), 2.0 + 6.0 - 1.0);
}

TEST(LinExpr, NormalizeMergesDuplicatesAndDropsZeros) {
  Model m;
  const VarId x = m.add_continuous(0, 1, "x");
  const VarId y = m.add_continuous(0, 1, "y");
  LinExpr e;
  e.add_term(x, 2.0);
  e.add_term(y, 1.0);
  e.add_term(x, -2.0);
  e.add_term(y, 0.5);
  const LinExpr n = e.normalized();
  ASSERT_EQ(n.terms().size(), 1u);
  EXPECT_EQ(n.terms()[0].first, y.index);
  EXPECT_DOUBLE_EQ(n.terms()[0].second, 1.5);
}

TEST(Model, ConstraintFoldsConstantsIntoRhs) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  // x + 3 <= 2 x + 5  ==>  -x <= 2
  m.add_constraint(LinExpr(x) + 3.0, Relation::kLe, 2.0 * LinExpr(x) + 5.0);
  ASSERT_EQ(m.num_constraints(), 1u);
  const auto c = m.row(0);
  ASSERT_EQ(c.terms.size(), 1u);
  EXPECT_DOUBLE_EQ(c.terms[0].second, -1.0);
  EXPECT_DOUBLE_EQ(c.rhs, 2.0);
}

TEST(Model, VariableKinds) {
  Model m;
  const VarId x = m.add_continuous(-1.5, 2.5, "x");
  const VarId b = m.add_binary("b");
  const VarId k = m.add_integer(0, 9, "k");
  EXPECT_EQ(m.variable(x).type, VarType::kContinuous);
  EXPECT_EQ(m.variable(b).type, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.variable(b).upper, 1.0);
  EXPECT_EQ(m.variable(k).type, VarType::kInteger);
  EXPECT_TRUE(m.has_integer_variables());
}

TEST(Model, HasIntegerVariablesIgnoresFixed) {
  Model m;
  const VarId b = m.add_binary("b");
  m.set_bounds(b, 1.0, 1.0);
  EXPECT_FALSE(m.has_integer_variables());
}

TEST(Model, RejectsInvalidBounds) {
  Model m;
  EXPECT_THROW(m.add_continuous(2.0, 1.0, "bad"), ContractViolation);
  const VarId x = m.add_continuous(0, 1, "x");
  EXPECT_THROW(m.set_bounds(x, 3.0, 2.0), ContractViolation);
}

TEST(Model, RejectsForeignVariables) {
  Model m;
  LinExpr e;
  e.add_term(VarId{5}, 1.0);  // variable never added
  EXPECT_THROW(m.add_constraint(e, Relation::kLe, 1.0), ContractViolation);
}

TEST(Model, FeasibilityCheck) {
  Model m;
  const VarId x = m.add_continuous(0, 4, "x");
  const VarId b = m.add_binary("b");
  m.add_constraint(LinExpr(x) + LinExpr(b), Relation::kLe, 3.0);
  m.add_constraint(LinExpr(x), Relation::kGe, 1.0);
  EXPECT_TRUE(m.is_feasible({2.0, 1.0}, 1e-9));
  EXPECT_FALSE(m.is_feasible({3.5, 1.0}, 1e-9));   // violates row 1
  EXPECT_FALSE(m.is_feasible({0.0, 0.0}, 1e-9));   // violates row 2
  EXPECT_FALSE(m.is_feasible({2.0, 0.5}, 1e-9));   // fractional binary
  EXPECT_FALSE(m.is_feasible({5.0, 0.0}, 1e-9));   // bound violation
  EXPECT_FALSE(m.is_feasible({2.0}, 1e-9));        // wrong arity
}

TEST(Model, ObjectiveEvaluation) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  m.set_objective(Sense::kMaximize, 3.0 * LinExpr(x) + 1.0);
  EXPECT_EQ(m.objective_sense(), Sense::kMaximize);
  EXPECT_DOUBLE_EQ(m.evaluate(m.objective(), {2.0}), 7.0);
}

/// A random row over `vars` columns: repeated columns, exact zeros and
/// pairs that cancel, with integral or fractional coefficients.
std::vector<Term> random_terms(mcs::support::Rng& rng, std::size_t vars,
                               bool integral) {
  std::vector<Term> terms;
  const auto count = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t k = 0; k < count; ++k) {
    const auto var = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vars) - 1));
    double coef = integral ? static_cast<double>(rng.uniform_int(-5, 5))
                           : rng.uniform(-3.0, 3.0);
    if (rng.uniform01() < 0.1) coef = 0.0;
    terms.emplace_back(var, coef);
    if (rng.uniform01() < 0.15) terms.emplace_back(var, -coef);
  }
  return terms;
}

TEST(Model, FlatRowsAreNormalizedLikeLinExpr) {
  for (const bool integral : {true, false}) {
    mcs::support::Rng rng(integral ? 17 : 23);
    Model m;
    constexpr std::size_t kVars = 8;
    for (std::size_t v = 0; v < kVars; ++v) {
      m.add_continuous(-10.0, 10.0, "x" + std::to_string(v));
    }
    for (int r = 0; r < 200; ++r) {
      const std::vector<Term> terms = random_terms(rng, kVars, integral);
      LinExpr expr;
      for (const auto& [var, coef] : terms) expr.add_term(VarId{var}, coef);
      const double rhs = integral ? 0.0 : rng.uniform(-5.0, 5.0);
      // Both overloads store the same row, bit for bit.
      m.add_constraint(expr, Relation::kLe, LinExpr(rhs));
      m.add_constraint(terms, Relation::kLe, rhs);
      const auto via_expr = m.row(m.num_constraints() - 2);
      const auto via_terms = m.row(m.num_constraints() - 1);
      const LinExpr normal = expr.normalized();
      const std::string at = (integral ? "integral row " : "fractional row ") +
                             std::to_string(r);
      ASSERT_EQ(via_expr.terms.size(), normal.terms().size()) << at;
      ASSERT_EQ(via_terms.terms.size(), normal.terms().size()) << at;
      for (std::size_t k = 0; k < normal.terms().size(); ++k) {
        EXPECT_EQ(via_expr.terms[k], normal.terms()[k]) << at;
        EXPECT_EQ(via_terms.terms[k], normal.terms()[k]) << at;
      }
      EXPECT_EQ(std::signbit(via_expr.rhs), std::signbit(via_terms.rhs))
          << at;
      EXPECT_EQ(via_expr.rhs, rhs) << at;
      EXPECT_EQ(via_terms.rhs, rhs) << at;

      // Sorted by index, repeats merged, exact zeros dropped: the sums of
      // an order-independent reference (exact on integral coefficients).
      std::map<std::size_t, double> sums;
      for (const auto& [var, coef] : terms) sums[var] += coef;
      std::vector<Term> want;
      for (const auto& [var, sum] : sums) {
        if (std::abs(sum) > (integral ? 0.0 : 1e-12)) {
          want.emplace_back(var, sum);
        }
      }
      ASSERT_EQ(normal.terms().size(), want.size()) << at;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(normal.terms()[k].first, want[k].first) << at;
        if (k > 0) {
          EXPECT_LT(normal.terms()[k - 1].first, normal.terms()[k].first)
              << at;
        }
        EXPECT_NE(normal.terms()[k].second, 0.0) << at;
        if (integral) {
          EXPECT_EQ(normal.terms()[k].second, want[k].second) << at;
        } else {
          EXPECT_NEAR(normal.terms()[k].second, want[k].second, 1e-12)
              << at;
        }
      }
    }
  }
}

TEST(Model, ZeroRhsIsStoredAsTheExpressionFormStoresIt) {
  Model m;
  const VarId x = m.add_continuous(0, 1, "x");
  const VarId y = m.add_continuous(0, 1, "y");
  // (x) - (y) <= 0 and x - y <= 0: rhs = -(0 - 0) = -0.0 both ways.
  m.add_constraint(LinExpr(x), Relation::kGe, LinExpr(y));
  const std::vector<Term> terms = {{x.index, 1.0}, {y.index, -1.0}};
  m.add_constraint(terms, Relation::kGe, 0.0);
  EXPECT_TRUE(std::signbit(m.row(0).rhs));
  EXPECT_TRUE(std::signbit(m.row(1).rhs));
}

TEST(Model, RejectedRowLeavesTheModelUnchanged) {
  Model m;
  const VarId x = m.add_continuous(0, 1, "x");
  m.add_constraint(LinExpr(x), Relation::kLe, 1.0, "keep");
  const std::vector<Term> foreign = {{x.index, 1.0}, {7, 2.0}};
  EXPECT_THROW(m.add_constraint(foreign, Relation::kLe, 1.0, "bad"),
               ContractViolation);
  const std::vector<Term> infinite = {{x.index, mcs::lp::kInfinity}};
  EXPECT_THROW(m.add_constraint(infinite, Relation::kLe, 1.0, "bad"),
               ContractViolation);
  ASSERT_EQ(m.num_constraints(), 1u);
  EXPECT_EQ(m.num_terms(), 1u);
  EXPECT_EQ(m.row(0).name, "keep");
  m.add_constraint(LinExpr(x), Relation::kGe, 0.5, "next");
  EXPECT_EQ(m.row(1).name, "next");
  EXPECT_EQ(m.row(1).terms.size(), 1u);
}

TEST(Model, CopyIsIndependentOfLaterPatches) {
  // A paused MILP search keeps a copy of its model while the caller
  // patches the original (set_rhs / set_bounds) for the next round.
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  const VarId b = m.add_binary("b");
  m.add_constraint(LinExpr(x) + 3.0 * LinExpr(b), Relation::kLe, 7.0, "cap");
  m.add_constraint(LinExpr(x), Relation::kGe, 1.0, "floor");
  m.set_objective(Sense::kMaximize, LinExpr(x));

  const Model copy = m;
  const auto before = copy.row(0);
  m.set_rhs(0, 9.0);
  m.set_bounds(x, 2.0, 4.0);
  m.set_bounds(b, 1.0, 1.0);
  m.add_constraint(LinExpr(b), Relation::kLe, 1.0, "extra");

  EXPECT_EQ(m.row(0).rhs, 9.0);
  EXPECT_EQ(copy.row(0).rhs, 7.0);
  EXPECT_EQ(before.rhs, 7.0);
  EXPECT_EQ(copy.variable(x).lower, 0.0);
  EXPECT_EQ(copy.variable(x).upper, 10.0);
  EXPECT_EQ(copy.variable(b).lower, 0.0);
  EXPECT_EQ(copy.variable(b).upper, 1.0);
  ASSERT_EQ(copy.num_constraints(), 2u);
  EXPECT_EQ(copy.row(1).name, "floor");
  ASSERT_EQ(copy.row(0).terms.size(), 2u);
  EXPECT_EQ(copy.row(0).terms[1], (Term{b.index, 3.0}));
  // x = 1 sits inside the copy's domain, below the patched original's.
  EXPECT_TRUE(copy.is_feasible({1.0, 1.0}, 1e-9));
  EXPECT_FALSE(m.is_feasible({1.0, 1.0}, 1e-9));
}

}  // namespace
