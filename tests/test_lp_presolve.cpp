// Tests for the MILP presolve/postsolve layer (lp/presolve.hpp).
//
// The load-bearing property is exactness: for any model, solving the
// presolve-reduced problem and postsolving the incumbent must be
// certificate-identical (status, objective, best bound, feasibility in
// the pristine model) to solving the original directly — at gap 0, under
// warm starts, and across a greedy-round patch chain.  The unit
// tests pin each reduction's mechanics; the differential tests sweep
// randomized delay MILPs and the committed workload corpus.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "check/presolve_audit.hpp"
#include "exp/figures.hpp"
#include "gen/generator.hpp"
#include "lp/milp.hpp"
#include "lp/model.hpp"
#include "lp/presolve.hpp"
#include "rt/io.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::build_delay_milp;
using mcs::analysis::DelayMilp;
using mcs::analysis::FormulationCase;
using mcs::analysis::update_delay_milp;
using mcs::lp::kInfinity;
using mcs::lp::LinExpr;
using mcs::lp::MilpOptions;
using mcs::lp::MilpResult;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::solve_milp;
using mcs::lp::SolveStatus;
using mcs::lp::term;
using mcs::lp::VarId;
using mcs::lp::presolve::kRemoved;
using mcs::lp::presolve::presolve;
using mcs::lp::presolve::Presolved;
using mcs::lp::presolve::PresolveOptions;
using mcs::rt::Task;
using mcs::rt::TaskIndex;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::support::Rng;

constexpr double kTol = 1e-6;

/// Presolve plus the full exactness audit (MCS-F301/F302) in one step —
/// every reduction in every test is also bookkeeping-checked.
Presolved presolve_audited(const Model& model) {
  Presolved pre = presolve(model);
  const mcs::check::CheckReport report =
      mcs::check::audit_presolve(model, pre);
  EXPECT_TRUE(report.clean()) << [&] {
    std::string all;
    for (const auto& d : report.diagnostics) {
      all += mcs::check::render(d) + "\n";
    }
    return all;
  }();
  return pre;
}

// --- Reduction mechanics ----------------------------------------------------

TEST(Presolve, FixedColumnIsSubstitutedIntoRowsAndObjective) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0, "x");
  const VarId f = m.add_continuous(3.0, 3.0, "f");  // pinned
  m.add_constraint(LinExpr(x) + 2.0 * LinExpr(f), Relation::kLe, 10.0, "cap");
  m.set_objective(Sense::kMaximize, LinExpr(x) + 5.0 * LinExpr(f));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.col_map[f.index], kRemoved);
  EXPECT_DOUBLE_EQ(pre.map.fixed_value[f.index], 3.0);
  // 2*3 moved into the rhs, 5*3 into the objective constant.
  EXPECT_DOUBLE_EQ(pre.reduced.objective().constant(), 15.0);
  EXPECT_GE(pre.stats.cols_removed, 1u);

  // Postsolve re-inserts the fixed coordinate exactly.
  const std::vector<double> back =
      pre.map.postsolve_primal(std::vector<double>(pre.reduced.num_variables(), 4.0));
  ASSERT_EQ(back.size(), m.num_variables());
  EXPECT_DOUBLE_EQ(back[f.index], 3.0);
  EXPECT_DOUBLE_EQ(back[x.index], 4.0);
}

TEST(Presolve, SingletonRowFoldsIntoABound) {
  Model m;
  const VarId x = m.add_continuous(0.0, 100.0, "x");
  const VarId y = m.add_continuous(0.0, 100.0, "y");
  m.add_constraint(term(x, 2.0), Relation::kLe, 10.0, "single");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 50.0, "joint");
  m.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(y));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.row_map[0], kRemoved);
  const std::size_t rx = pre.map.col_map[x.index];
  ASSERT_NE(rx, kRemoved);
  EXPECT_DOUBLE_EQ(pre.reduced.variables()[rx].upper, 5.0);
}

TEST(Presolve, SingletonRowBoundsAnUnboundedColumn) {
  // Regression: tol(±inf) is inf, so the bound-improvement gate used to
  // see "no improvement" on an infinite incumbent bound and fold_singleton
  // then dropped the row without applying it — silently deleting `2x <= 10`
  // on a column unbounded above and leaving the model unbounded.
  Model m;
  const VarId x = m.add_continuous(0.0, kInfinity, "x");
  const VarId y = m.add_continuous(-kInfinity, 0.0, "y");
  m.add_constraint(term(x, 2.0), Relation::kLe, 10.0, "cap_x");
  m.add_constraint(LinExpr(y), Relation::kGe, -3.0, "floor_y");
  m.set_objective(Sense::kMaximize, LinExpr(x) - LinExpr(y));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.row_map[0], kRemoved);
  EXPECT_EQ(pre.map.row_map[1], kRemoved);
  const std::size_t rx = pre.map.col_map[x.index];
  const std::size_t ry = pre.map.col_map[y.index];
  ASSERT_NE(rx, kRemoved);
  ASSERT_NE(ry, kRemoved);
  EXPECT_DOUBLE_EQ(pre.reduced.variables()[rx].upper, 5.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variables()[ry].lower, -3.0);

  MilpOptions opt;
  opt.use_presolve = true;
  const MilpResult r = solve_milp(m, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, kTol);
}

TEST(Presolve, RoundCapEmptyRowInfeasibilityIsDetected) {
  // x + y <= 1 with both binaries pinned to 1 by later equality rows.  At
  // max_rounds = 1 the cardinality row survives the reduction loop and
  // only collapses to an empty row during emit-time substitution; its
  // violated residual rhs must still be flagged here, not emitted as a
  // degenerate empty-LHS constraint for the solver to trip over.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 1.0, "card");
  m.add_constraint(LinExpr(x), Relation::kEq, 1.0, "pin_x");
  m.add_constraint(LinExpr(y), Relation::kEq, 1.0, "pin_y");
  m.set_objective(Sense::kMaximize, LinExpr(x));

  PresolveOptions opt;
  opt.max_rounds = 1;
  const Presolved pre = presolve(m, opt);
  EXPECT_TRUE(pre.infeasible);
}

TEST(Presolve, RoundCapEmptySatisfiedRowIsDropped) {
  // Same shape, but the pins (x = 1, y = 0) satisfy the cardinality row:
  // the emit-time disposal must drop it instead of emitting an empty row.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 1.0, "card");
  m.add_constraint(LinExpr(x), Relation::kEq, 1.0, "pin_x");
  m.add_constraint(LinExpr(y), Relation::kEq, 0.0, "pin_y");
  m.set_objective(Sense::kMaximize, LinExpr(x));

  PresolveOptions opt;
  opt.max_rounds = 1;
  const Presolved pre = presolve(m, opt);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.row_map[0], kRemoved);
  for (std::size_t r = 0; r < pre.reduced.num_constraints(); ++r) {
    EXPECT_FALSE(pre.reduced.row(r).terms.empty());
  }
}

TEST(Presolve, RedundantAndDuplicateRowsAreDropped) {
  Model m;
  const VarId x = m.add_continuous(0.0, 2.0, "x");
  const VarId y = m.add_continuous(0.0, 2.0, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 100.0,
                   "slack");  // max activity 4 << 100
  m.add_constraint(LinExpr(x) - LinExpr(y), Relation::kLe, 1.0, "tight");
  m.add_constraint(LinExpr(x) - LinExpr(y), Relation::kLe, 3.0,
                   "dominated");  // duplicate terms, looser rhs
  m.set_objective(Sense::kMaximize, LinExpr(x));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.row_map[0], kRemoved);
  EXPECT_EQ(pre.map.row_map[2], kRemoved);
  EXPECT_NE(pre.map.row_map[1], kRemoved);
}

TEST(Presolve, DuplicateRowGroupsResolveInTermOrder) {
  // Free columns keep every row out of the activity-based reductions, so
  // only the duplicate-row pass acts.  Each group pairs an equality with
  // a looser <= row on the same terms; the <= rows go in the order of the
  // groups' term vectors ((x, y) before (x, z)), not in row order.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity, "x");
  const VarId y = m.add_continuous(-kInfinity, kInfinity, "y");
  const VarId z = m.add_continuous(-kInfinity, kInfinity, "z");
  m.add_constraint(LinExpr(x) + LinExpr(z), Relation::kEq, 1.0, "xz_eq");
  m.add_constraint(LinExpr(x) + LinExpr(z), Relation::kLe, 3.0, "xz_le");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kEq, 1.0, "xy_eq");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kLe, 2.0, "xy_le");
  m.set_objective(Sense::kMaximize, LinExpr(y) + LinExpr(z));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  std::vector<std::size_t> dropped;
  for (const auto& red : pre.log) {
    if (red.kind == mcs::lp::presolve::ReductionKind::kDuplicateRow) {
      dropped.push_back(red.index);
    }
  }
  EXPECT_EQ(dropped, (std::vector<std::size_t>{3, 1}));
  EXPECT_EQ(pre.map.row_map[0], 0u);
  EXPECT_EQ(pre.map.row_map[2], 1u);
}

TEST(Presolve, ForcingRowFixesItsColumns) {
  // x + y >= 4 with x,y in [0,2]: only x = y = 2 satisfies it.
  Model m;
  const VarId x = m.add_continuous(0.0, 2.0, "x");
  const VarId y = m.add_continuous(0.0, 2.0, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kGe, 4.0, "force");
  m.set_objective(Sense::kMinimize, LinExpr(x) + LinExpr(y));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.map.col_map[x.index], kRemoved);
  EXPECT_EQ(pre.map.col_map[y.index], kRemoved);
  EXPECT_DOUBLE_EQ(pre.map.fixed_value[x.index], 2.0);
  EXPECT_DOUBLE_EQ(pre.map.fixed_value[y.index], 2.0);
  // Fully solved at the root: objective is a constant.
  EXPECT_EQ(pre.reduced.num_variables(), 0u);
  EXPECT_DOUBLE_EQ(pre.reduced.objective().constant(), 4.0);
}

TEST(Presolve, BigMCoefficientIsStrengthened) {
  // b in {0,1}, x in [0, 4]: `x - 100 b <= 0` activates x only when b = 1,
  // but 100 is far above what x can use — the exact form is `x - 4 b <= 0`.
  Model m;
  const VarId x = m.add_continuous(0.0, 4.0, "x");
  const VarId b = m.add_binary("b");
  m.add_constraint(LinExpr(x) - term(b, 100.0), Relation::kLe, 0.0, "bigM");
  m.set_objective(Sense::kMaximize, LinExpr(x) - term(b, 0.5));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_GE(pre.stats.coefficients_tightened, 1u);
  const std::size_t row = pre.map.row_map[0];
  ASSERT_NE(row, kRemoved);
  // Equilibration rescales the emitted row; descale through the map to
  // recover the strengthened original-space coefficient.
  const double rs =
      pre.map.row_scale.empty() ? 1.0 : pre.map.row_scale[row];
  for (const auto& [var, coef] : pre.reduced.row(row).terms) {
    if (var == pre.map.col_map[b.index]) {
      const double cs = pre.map.col_scale.empty()
                            ? 1.0
                            : pre.map.col_scale[pre.map.col_map[b.index]];
      EXPECT_DOUBLE_EQ(coef / (rs * cs), -4.0);
    }
  }
  // Strengthening must not change the optimum (b=1, x=4, objective 3.5).
  const MilpResult res = solve_milp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.5, kTol);
}

TEST(Presolve, EquilibrationIsAnExactReparametrization) {
  // Mixed-magnitude rows (unit placement coefficients next to big-M delay
  // terms) are the shape equilibration exists for.  The audit inside
  // presolve_audited already pins the invariants (powers of two, integral
  // columns unscaled, scaled bounds still inside the originals); this test
  // adds the exactness round trip.
  Model m;
  const VarId x = m.add_continuous(0.0, 4096.0, "x");
  const VarId y = m.add_continuous(0.0, 2.0, "y");
  const VarId b = m.add_binary("b");
  m.add_constraint(term(x, 1.0) + term(y, 1024.0), Relation::kLe, 4096.0,
                   "wide");
  m.add_constraint(term(x, 1.0) - term(b, 4096.0), Relation::kLe, 0.0,
                   "gate");
  m.set_objective(Sense::kMaximize,
                  term(x, 1.0) + term(y, 3.0) + term(b, 0.25));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_GE(pre.stats.rows_scaled + pre.stats.cols_scaled, 1u);
  ASSERT_FALSE(pre.map.row_scale.empty());
  ASSERT_FALSE(pre.map.col_scale.empty());
  const std::size_t rb = pre.map.col_map[b.index];
  ASSERT_NE(rb, kRemoved);
  EXPECT_DOUBLE_EQ(pre.map.col_scale[rb], 1.0);

  // restrict -> postsolve is the identity on surviving columns: dividing
  // and re-multiplying by a power of two loses nothing.
  const std::vector<double> point{1234.0, 1.5, 1.0};
  std::vector<double> reduced;
  ASSERT_TRUE(pre.map.restrict_primal(point, 1e-9, &reduced));
  const std::vector<double> back = pre.map.postsolve_primal(reduced);
  ASSERT_EQ(back.size(), point.size());
  for (std::size_t c = 0; c < point.size(); ++c) {
    if (pre.map.col_map[c] != kRemoved) {
      EXPECT_DOUBLE_EQ(back[c], point[c]);
    }
  }

  // Objective values transfer between spaces unchanged.
  EXPECT_DOUBLE_EQ(pre.reduced.evaluate(pre.reduced.objective(), reduced),
                   m.evaluate(m.objective(), point));

  // The pass is a pure option: off means no scale vectors and the exact
  // original coefficients.
  PresolveOptions off;
  off.equilibrate = false;
  const Presolved raw = presolve(m, off);
  EXPECT_TRUE(raw.map.row_scale.empty());
  EXPECT_TRUE(raw.map.col_scale.empty());
}

TEST(Presolve, DetectsInfeasibilityFromBoundsAndRows) {
  {
    Model m;
    const VarId x = m.add_continuous(0.0, 1.0, "x");
    m.add_constraint(LinExpr(x), Relation::kGe, 5.0, "impossible");
    m.set_objective(Sense::kMaximize, LinExpr(x));
    EXPECT_TRUE(presolve_audited(m).infeasible);
    EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
  }
  {
    Model m;
    const VarId x = m.add_continuous(0.0, 10.0, "x");
    const VarId y = m.add_continuous(0.0, 10.0, "y");
    m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kEq, 3.0, "eq_a");
    m.add_constraint(LinExpr(x) + LinExpr(y), Relation::kEq, 4.0, "eq_b");
    m.set_objective(Sense::kMaximize, LinExpr(x));
    EXPECT_TRUE(presolve_audited(m).infeasible);
    EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
  }
}

TEST(Presolve, IntegralBoundsAreRounded) {
  Model m;
  const VarId n = m.add_integer(0.0, 10.0, "n");
  m.add_constraint(term(n, 2.0), Relation::kLe, 7.0, "half");  // n <= 3.5
  m.set_objective(Sense::kMaximize, LinExpr(n));

  const Presolved pre = presolve_audited(m);
  ASSERT_FALSE(pre.infeasible);
  // The singleton folds to n <= 3.5, integrality rounds to n <= 3, and the
  // model solves at the root or trivially.
  const MilpResult res = solve_milp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, kTol);
}

TEST(PostsolveMap, RestrictPrimalRejectsDisagreeingPoints) {
  Model m;
  const VarId x = m.add_continuous(0.0, 10.0, "x");
  const VarId f = m.add_continuous(2.0, 2.0, "f");
  m.add_constraint(LinExpr(x) + LinExpr(f), Relation::kLe, 10.0, "cap");
  m.set_objective(Sense::kMaximize, LinExpr(x));

  const Presolved pre = presolve_audited(m);
  ASSERT_EQ(pre.map.col_map[f.index], kRemoved);

  std::vector<double> agreeing(m.num_variables(), 0.0);
  agreeing[f.index] = 2.0;
  agreeing[x.index] = 1.0;
  std::vector<double> out;
  ASSERT_TRUE(pre.map.restrict_primal(agreeing, 1e-6, &out));
  ASSERT_EQ(out.size(), pre.map.reduced_cols());
  EXPECT_DOUBLE_EQ(out[pre.map.col_map[x.index]], 1.0);

  std::vector<double> disagreeing = agreeing;
  disagreeing[f.index] = 0.0;  // contradicts the fixing
  EXPECT_FALSE(pre.map.restrict_primal(disagreeing, 1e-6, &out));
}

// --- Differential corpus: presolve on == presolve off -----------------------

/// Solves with and without presolve at gap 0 and requires certificate
/// identity; also audits the postsolved incumbent against the pristine
/// model (MCS-F303/F304).
void expect_presolve_exact(const Model& model, MilpOptions opt,
                           const char* label) {
  opt.relative_gap = 0.0;
  opt.use_presolve = true;
  const MilpResult on = solve_milp(model, opt);
  opt.use_presolve = false;
  const MilpResult off = solve_milp(model, opt);

  ASSERT_EQ(on.status, off.status) << label;
  ASSERT_EQ(on.has_incumbent, off.has_incumbent) << label;
  if (!off.has_incumbent) return;
  const double scale = std::max(1.0, std::abs(off.objective));
  EXPECT_NEAR(on.objective, off.objective, kTol * scale) << label;
  EXPECT_NEAR(on.best_bound, off.best_bound, kTol * scale) << label;
  EXPECT_TRUE(model.is_feasible(on.values, 1e-6)) << label;

  const mcs::check::CheckReport report =
      mcs::check::audit_postsolve(model, on.values, on.objective);
  EXPECT_TRUE(report.clean()) << label;
}

class PresolveDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PresolveDifferential, RandomDelayMilpsMatchWithAndWithoutPresolve) {
  Rng rng(GetParam() * 613 + 29);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.5);
  cfg.gamma = rng.uniform(0.1, 0.4);
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    tasks[j].latency_sensitive = rng.uniform01() < 0.4;
  }
  const auto i = static_cast<TaskIndex>(
      rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
  // Half-period window as in test_lp_warm_start.cpp: tree size, not
  // coverage, is what the full window would add.
  const DelayMilp milp =
      build_delay_milp(tasks, i, tasks[i].period / 2, FormulationCase::kNls,
                       /*ignore_ls=*/false);

  MilpOptions opt;
  opt.max_nodes = 50000;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }
  presolve_audited(milp.model);
  expect_presolve_exact(milp.model, opt, "random delay MILP");
}

TEST_P(PresolveDifferential, WarmStartedSolvesMatch) {
  Rng rng(GetParam() * 271 + 5);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = rng.uniform(0.3, 0.45);
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  tasks[0].latency_sensitive = true;
  const auto i = static_cast<TaskIndex>(
      rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
  const DelayMilp milp =
      build_delay_milp(tasks, i, tasks[i].period / 2, FormulationCase::kNls,
                       /*ignore_ls=*/false);

  MilpOptions opt;
  opt.max_nodes = 50000;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }
  // First solve produces the incumbent the engine would carry; the seeded
  // re-solve must stay exact with presolve restricting the start vector.
  const MilpResult first = solve_milp(milp.model, opt);
  if (!first.has_incumbent) return;
  opt.start_values = first.values;
  expect_presolve_exact(milp.model, opt, "warm-started delay MILP");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveDifferential,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(PresolveSession, GreedyRoundPatchChainStaysExact) {
  // Mimic the engine's cache hit path: one patchable formulation, LS-marking
  // flips applied through update_delay_milp between solves, and the
  // previous round's incumbent carried in.  Every presolved solve of the
  // patched model must match a presolve-off solve of the same state.
  Rng rng(0xC0FFEE);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 4;
  cfg.utilization = 0.4;
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  const TaskIndex i = static_cast<TaskIndex>(tasks.size() - 1);
  const Time t = tasks[i].period / 2;
  DelayMilp milp = build_delay_milp(tasks, i, t, FormulationCase::kNls,
                                    /*ignore_ls=*/false, /*patchable=*/true);

  MilpOptions opt;
  opt.max_nodes = 50000;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }

  for (int round = 0; round < 4; ++round) {
    // Flip one task's LS flag and re-target the cached formulation.
    const std::size_t flip =
        static_cast<std::size_t>(rng.uniform_int(0,
            static_cast<std::int64_t>(tasks.size()) - 1));
    tasks[flip].latency_sensitive = !tasks[flip].latency_sensitive;
    update_delay_milp(milp, tasks, i, t, /*ignore_ls=*/false);

    opt.use_presolve = true;
    const MilpResult patched = solve_milp(milp.model, opt);

    MilpOptions fresh = opt;
    fresh.use_presolve = false;
    const MilpResult direct = solve_milp(milp.model, fresh);

    const std::string label = "round " + std::to_string(round);
    ASSERT_EQ(patched.status, direct.status) << label;
    ASSERT_EQ(patched.has_incumbent, direct.has_incumbent) << label;
    if (!direct.has_incumbent) continue;
    const double scale = std::max(1.0, std::abs(direct.objective));
    EXPECT_NEAR(patched.objective, direct.objective, kTol * scale) << label;
    EXPECT_TRUE(milp.model.is_feasible(patched.values, 1e-6)) << label;
    opt.start_values = patched.values;  // carry like the engine does
  }
}

TEST(PresolveCorpus, CommittedWorkloadFormulationsReduceAndStayExact) {
  // The committed LP corpus: every formulation the lint sweep builds from
  // workloads/*.wl must (a) presolve cleanly under the MCS-F3xx audits,
  // (b) show a nonzero reduction (the delay MILPs always carry removable
  // structure), and (c) solve certificate-identically with presolve on.
  const char* files[] = {"/workloads/quickstart.wl",
                         "/workloads/sensor_chain.wl"};
  for (const char* file : files) {
    const mcs::rt::Workload workload =
        mcs::rt::load_workload_file(std::string(MCS_SOURCE_DIR) + file);
    const TaskSet& tasks = workload.tasks;
    std::size_t total_removed = 0;
    for (TaskIndex i = 0; i < tasks.size(); ++i) {
      // Half-deadline window: proving gap-0 optimality on the full window
      // is tree size, not presolve coverage (same trade as the warm-start
      // differential tests).
      const Time t = tasks[i].deadline / 2;
      const DelayMilp milp = build_delay_milp(tasks, i, t,
                                              FormulationCase::kNls,
                                              /*ignore_ls=*/false);
      const Presolved pre = presolve_audited(milp.model);
      ASSERT_FALSE(pre.infeasible) << file << " task " << i;
      total_removed += pre.stats.rows_removed + pre.stats.cols_removed;

      MilpOptions opt;
      opt.max_nodes = 50000;
      opt.branch_priority.assign(milp.model.num_variables(), 0);
      for (const VarId alpha : milp.alpha_vars) {
        opt.branch_priority[alpha.index] = 1;
      }
      expect_presolve_exact(milp.model, opt, file);
    }
    EXPECT_GT(total_removed, 0u) << file;
  }
}

// A Fig. 2(b) delay MILP (U = 0.2, task set slot 1; the WP formulation of
// tau5 over a window of 92204) whose polished incumbent carried simplex
// round-off: Delta_3 = 1097229.000004 and Delta_6 = 291327.0000037,
// each a few 1e-6 past the exact bound its delta_cpu row sets once the
// integral columns are fixed.  The incumbent solve_milp returns must be
// feasible in the pristine model at the tolerance it applies to start
// values, and pass the postsolve audit (MCS-F303/F304) that Debug builds
// run on every incumbent.
TEST(PresolveCorpus, Figure2IncumbentIsFeasibleInPristineModel) {
  const mcs::exp::ExperimentConfig cfg = mcs::exp::figure2_config('b');
  mcs::gen::GeneratorConfig g = cfg.base;
  g.utilization = cfg.values[1];
  Rng rng(mcs::support::derive_seed(cfg.seed, 1, 1));
  const TaskSet tasks = mcs::gen::generate_task_set(g, rng);
  TaskIndex i = tasks.size();
  for (TaskIndex k = 0; k < tasks.size(); ++k) {
    if (tasks[k].name == "tau5") i = k;
  }
  ASSERT_LT(i, tasks.size());
  const DelayMilp milp = build_delay_milp(tasks, i, 92204,
                                          FormulationCase::kNls,
                                          /*ignore_ls=*/true);
  MilpOptions opt = cfg.analysis.milp;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }
  const MilpResult res = solve_milp(milp.model, opt);
  ASSERT_TRUE(res.has_incumbent);
  EXPECT_TRUE(
      milp.model.is_feasible(res.values, 10.0 * opt.lp.feasibility_tol));
  const mcs::check::CheckReport report =
      mcs::check::audit_postsolve(milp.model, res.values, res.objective);
  EXPECT_TRUE(report.clean()) << [&] {
    std::string all;
    for (const auto& d : report.diagnostics) {
      all += mcs::check::render(d) + "\n";
    }
    return all;
  }();
}

}  // namespace
