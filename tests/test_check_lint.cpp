// Differential and negative tests of the mcs::check formulation linter
// (check/formulation_lint.hpp via the analysis/lint.hpp adapter) and the
// generic model lints / structural differ (check/model_lint.hpp).
//
// Positive direction: every formulation the analysis engine can build —
// fresh, re-patched to the same window, re-patched across an LS-marking
// change, and over a randomized corpus — must lint clean and be
// structurally identical to a from-scratch rebuild.  Negative direction:
// each MCS-F rule must fire when exactly its invariant is corrupted.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/lint.hpp"
#include "analysis/milp_formulation.hpp"
#include "check/diagnostics.hpp"
#include "check/formulation_lint.hpp"
#include "check/model_lint.hpp"
#include "check/presolve_audit.hpp"
#include "lp/presolve.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::build_delay_milp;
using mcs::analysis::DelayMilp;
using mcs::analysis::FormulationCase;
using mcs::analysis::lint_delay_milp;
using mcs::analysis::update_delay_milp;
using mcs::analysis::verify_patched_equivalence;
using mcs::check::CheckReport;
using mcs::check::diff_models;
using mcs::check::find_rule;
using mcs::check::lint_model;
using mcs::check::rule_catalog;
using mcs::check::Severity;
using mcs::lp::LinExpr;
using mcs::lp::Model;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::VarId;
using mcs::rt::Task;
using mcs::rt::TaskIndex;
using mcs::rt::TaskSet;
using mcs::rt::Time;

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

TaskSet mixed_set() {
  return TaskSet({make_task("s", 2, 1, 30, 10, 0, true),
                  make_task("a", 4, 2, 40, 30, 1),
                  make_task("b", 3, 1, 50, 45, 2),
                  make_task("c", 5, 2, 80, 70, 3)});
}

std::string render_all(const CheckReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += mcs::check::render(d) + "\n";
  }
  return out;
}

/// Index of the first constraint whose name starts with `prefix`.
std::size_t row_named(const Model& model, const std::string& prefix) {
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const std::string_view name = model.row(r).name;
    if (name.rfind(prefix, 0) == 0) {
      return r;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Asserts a clean lint for one (case, mode) formulation: fresh build,
/// same-window patch, and differential rebuild.
void expect_clean(const TaskSet& tasks, TaskIndex i, Time t,
                  FormulationCase fcase, bool ignore_ls) {
  DelayMilp milp =
      build_delay_milp(tasks, i, t, fcase, ignore_ls, !ignore_ls);
  CheckReport fresh = lint_delay_milp(milp, tasks, i, t, fcase, ignore_ls);
  EXPECT_TRUE(fresh.clean()) << render_all(fresh);

  update_delay_milp(milp, tasks, i, t, ignore_ls);
  CheckReport patched = lint_delay_milp(milp, tasks, i, t, fcase, ignore_ls);
  EXPECT_TRUE(patched.clean()) << render_all(patched);

  CheckReport diff =
      verify_patched_equivalence(milp, tasks, i, t, fcase, ignore_ls);
  EXPECT_TRUE(diff.clean()) << render_all(diff);
}

TEST(CheckLint, FreshAndPatchedFormulationsLintClean) {
  const TaskSet tasks = mixed_set();
  for (TaskIndex i = 0; i < tasks.size(); ++i) {
    const Time t = tasks[i].deadline;
    expect_clean(tasks, i, t, FormulationCase::kNls, true);
    expect_clean(tasks, i, t, FormulationCase::kNls, false);
    if (tasks[i].latency_sensitive) {
      expect_clean(tasks, i, t, FormulationCase::kLsCaseA, false);
      expect_clean(tasks, i, 0, FormulationCase::kLsCaseB, false);
    }
  }
}

TEST(CheckLint, PatchAcrossLsMarkingChangeLintsClean) {
  // The greedy algorithm's cache reuse: build under one marking, flip a
  // task's LS flag, patch, and the model must equal a fresh build for the
  // new marking.  Exercised for the patchable (non-ignore_ls) mode only —
  // that is the only mode the engine patches across markings.
  TaskSet tasks = mixed_set();
  const TaskIndex i = 3;  // lowest priority: sees every LS candidate
  const Time t = tasks[i].deadline;
  DelayMilp milp = build_delay_milp(tasks, i, t, FormulationCase::kNls,
                                    /*ignore_ls=*/false,
                                    /*patchable_ls=*/true);

  tasks[1].latency_sensitive = true;  // promote "a"
  update_delay_milp(milp, tasks, i, t, /*ignore_ls=*/false);

  CheckReport lint = lint_delay_milp(milp, tasks, i, t,
                                     FormulationCase::kNls, false);
  EXPECT_TRUE(lint.clean()) << render_all(lint);
  CheckReport diff = verify_patched_equivalence(milp, tasks, i, t,
                                                FormulationCase::kNls, false);
  EXPECT_TRUE(diff.clean()) << render_all(diff);

  tasks[1].latency_sensitive = false;  // and demote again
  update_delay_milp(milp, tasks, i, t, /*ignore_ls=*/false);
  CheckReport back = lint_delay_milp(milp, tasks, i, t,
                                     FormulationCase::kNls, false);
  EXPECT_TRUE(back.clean()) << render_all(back);
}

TEST(CheckLint, PatchToLargerWindowLintsClean) {
  // Window growth within the same interval count: only the budget RHS and
  // the cancellation budget move; the linter re-derives both.
  const TaskSet tasks = mixed_set();
  const TaskIndex i = 2;
  DelayMilp milp = build_delay_milp(tasks, i, 10, FormulationCase::kNls,
                                    false, true);
  // Find a larger t with the same interval count by probing the built
  // models (the linter itself must not trust the analysis window code).
  for (Time t2 = 11; t2 <= 25; ++t2) {
    const DelayMilp probe =
        build_delay_milp(tasks, i, t2, FormulationCase::kNls, false, true);
    if (probe.num_intervals != milp.num_intervals) {
      continue;
    }
    update_delay_milp(milp, tasks, i, t2, false);
    CheckReport lint =
        lint_delay_milp(milp, tasks, i, t2, FormulationCase::kNls, false);
    EXPECT_TRUE(lint.clean()) << "t2=" << t2 << "\n" << render_all(lint);
    CheckReport diff = verify_patched_equivalence(
        milp, tasks, i, t2, FormulationCase::kNls, false);
    EXPECT_TRUE(diff.clean()) << "t2=" << t2 << "\n" << render_all(diff);
  }
}

TEST(CheckLint, RandomizedCorpusLintsClean) {
  mcs::support::Rng rng(0xC0FFEE);
  mcs::gen::GeneratorConfig config;
  for (int trial = 0; trial < 20; ++trial) {
    config.num_tasks = 3 + static_cast<std::size_t>(trial % 4);
    config.utilization = 0.3 + 0.1 * (trial % 4);
    TaskSet tasks = mcs::gen::generate_task_set(config, rng);
    // Mark the highest-priority task LS (the generator emits all-NLS).
    for (TaskIndex j = 0; j < tasks.size(); ++j) {
      if (tasks[j].priority == 0) {
        tasks[j].latency_sensitive = true;
      }
    }
    for (TaskIndex i = 0; i < tasks.size(); ++i) {
      const Time t = tasks[i].deadline;
      expect_clean(tasks, i, t, FormulationCase::kNls, true);
      expect_clean(tasks, i, t, FormulationCase::kNls, false);
      if (tasks[i].latency_sensitive) {
        expect_clean(tasks, i, t, FormulationCase::kLsCaseA, false);
        expect_clean(tasks, i, 0, FormulationCase::kLsCaseB, false);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Negative tests: each corruption must trip exactly its rule.

struct Fixture {
  TaskSet tasks = mixed_set();
  TaskIndex i = 3;
  Time t;
  DelayMilp milp;

  Fixture()
      : t(tasks[i].deadline),
        milp(build_delay_milp(tasks, i, t, FormulationCase::kNls,
                              /*ignore_ls=*/false, /*patchable_ls=*/true)) {}

  CheckReport lint() const {
    return lint_delay_milp(milp, tasks, i, t, FormulationCase::kNls, false);
  }
};

TEST(CheckLintNegative, PlacementCardinalityCorruptionFires101) {
  Fixture f;
  const std::size_t row = row_named(f.milp.model, "one_exec_");
  ASSERT_NE(row, static_cast<std::size_t>(-1));
  f.milp.model.set_rhs(row, 2.0);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F101")) << render_all(report);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(CheckLintNegative, CopyInCardinalityCorruptionFires102) {
  Fixture f;
  const std::size_t row = row_named(f.milp.model, "one_copyin_");
  ASSERT_NE(row, static_cast<std::size_t>(-1));
  f.milp.model.set_rhs(row, 3.0);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F102")) << render_all(report);
}

TEST(CheckLintNegative, StrayBinaryColumnFires103) {
  Fixture f;
  f.milp.model.add_binary("stray");
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F103")) << render_all(report);
}

TEST(CheckLintNegative, BudgetRhsCorruptionFires104) {
  Fixture f;
  const std::size_t row = row_named(f.milp.model, "budget_");
  ASSERT_NE(row, static_cast<std::size_t>(-1));
  f.milp.model.set_rhs(row, f.milp.model.row(row).rhs + 1.0);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F104")) << render_all(report);
}

TEST(CheckLintNegative, CancellationBudgetRhsCorruptionFires105) {
  Fixture f;
  ASSERT_NE(f.milp.cancellation_budget_constraint, DelayMilp::kNoConstraint);
  const std::size_t row = f.milp.cancellation_budget_constraint;
  f.milp.model.set_rhs(row, f.milp.model.row(row).rhs + 1.0);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F105")) << render_all(report);
}

TEST(CheckLintNegative, FractionalLinkageRhsFires106) {
  Fixture f;
  const std::size_t row = row_named(f.milp.model, "delta_cpu_");
  ASSERT_NE(row, static_cast<std::size_t>(-1));
  f.milp.model.set_rhs(row, 0.5);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F106")) << render_all(report);
}

TEST(CheckLintNegative, LsMarkingBoundCorruptionFires107) {
  Fixture f;
  // Flip the first structurally-present urgent (LE) column's upper bound:
  // the marking says one thing, the model another.
  for (const auto& per_task : f.milp.urgent_vars) {
    for (const VarId v : per_task) {
      if (v.index == static_cast<std::size_t>(-1)) {
        continue;
      }
      const double old_ub = f.milp.model.variable(v).upper;
      f.milp.model.set_bounds(v, 0.0, old_ub > 0.5 ? 0.0 : 1.0);
      const CheckReport report = f.lint();
      EXPECT_TRUE(report.has_rule("MCS-F107")) << render_all(report);
      return;
    }
  }
  FAIL() << "no structurally-present urgent column in fixture";
}

TEST(CheckLintNegative, DeltaBoundCorruptionFires108) {
  Fixture f;
  const VarId delta = f.milp.delta_vars[0];
  f.milp.model.set_bounds(delta, 0.0,
                          f.milp.model.variable(delta).upper + 7.0);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F108")) << render_all(report);
}

TEST(CheckLintNegative, ObjectiveCorruptionFires109) {
  Fixture f;
  LinExpr objective;
  for (const VarId d : f.milp.delta_vars) {
    objective += mcs::lp::term(d, 2.0);  // wrong weight
  }
  f.milp.model.set_objective(Sense::kMaximize, objective);
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.has_rule("MCS-F109")) << render_all(report);
}

TEST(CheckLintNegative, HandleBookkeepingMismatchFires110) {
  Fixture f;
  mcs::check::FormulationView view = mcs::analysis::formulation_view(f.milp);
  view.num_intervals += 1;  // bookkeeping no longer matches the window
  const CheckReport report = mcs::check::lint_formulation(
      view, f.tasks, f.i, f.t, mcs::check::FormulationCase::kNls, false);
  EXPECT_TRUE(report.has_rule("MCS-F110")) << render_all(report);
}

TEST(CheckLintNegative, PatchedModelDriftFires20x) {
  Fixture f;
  Model drifted = f.milp.model;

  {
    Model extra_col = drifted;
    extra_col.add_continuous(0.0, 1.0, "ghost");
    const CheckReport report = diff_models(f.milp.model, extra_col);
    EXPECT_TRUE(report.has_rule("MCS-F201")) << render_all(report);
  }
  {
    Model bound = drifted;
    bound.set_bounds(f.milp.delta_vars[0], 0.0, 1e6);
    const CheckReport report = diff_models(f.milp.model, bound);
    EXPECT_TRUE(report.has_rule("MCS-F202")) << render_all(report);
  }
  {
    Model extra_row = drifted;
    extra_row.add_constraint(LinExpr(f.milp.delta_vars[0]), Relation::kLe,
                             LinExpr(1.0), "ghost_row");
    const CheckReport report = diff_models(f.milp.model, extra_row);
    EXPECT_TRUE(report.has_rule("MCS-F203")) << render_all(report);
  }
  {
    Model rhs = drifted;
    rhs.set_rhs(0, drifted.row(0).rhs + 1.0);
    const CheckReport report = diff_models(f.milp.model, rhs);
    EXPECT_TRUE(report.has_rule("MCS-F204")) << render_all(report);
  }
  {
    Model objective = drifted;
    objective.set_objective(Sense::kMinimize, drifted.objective());
    const CheckReport report = diff_models(f.milp.model, objective);
    EXPECT_TRUE(report.has_rule("MCS-F205")) << render_all(report);
  }
}

TEST(CheckLintNegative, GenericModelRulesFire) {
  Model model;
  const VarId x = model.add_continuous(0.0, 10.0, "x");
  const VarId dup1 = model.add_continuous(0.0, 1.0, "same");
  const VarId dup2 = model.add_continuous(0.0, 1.0, "same");  // MCS-F007
  model.add_continuous(0.0, 1.0, "dangling");                 // MCS-F004
  model.add_constraint(LinExpr(x), Relation::kLe, LinExpr(5.0), "r");
  model.add_constraint(LinExpr(dup1) + LinExpr(dup2), Relation::kLe,
                       LinExpr(2.0), "r");                    // MCS-F008
  model.add_constraint(LinExpr(0.0), Relation::kLe, LinExpr(1.0),
                       "vacuous");                            // MCS-F005
  model.add_constraint(LinExpr(0.0), Relation::kGe, LinExpr(1.0),
                       "impossible");                         // MCS-F006
  model.set_objective(Sense::kMaximize, LinExpr(x));

  const CheckReport report = lint_model(model);
  EXPECT_TRUE(report.has_rule("MCS-F004")) << render_all(report);
  EXPECT_TRUE(report.has_rule("MCS-F005")) << render_all(report);
  EXPECT_TRUE(report.has_rule("MCS-F006")) << render_all(report);
  EXPECT_TRUE(report.has_rule("MCS-F007")) << render_all(report);
  EXPECT_TRUE(report.has_rule("MCS-F008")) << render_all(report);
}

TEST(CheckLintNegative, PresolveAuditRulesFire30x) {
  using mcs::check::audit_postsolve;
  using mcs::check::audit_presolve;
  using mcs::lp::presolve::kRemoved;
  using mcs::lp::presolve::presolve;
  using mcs::lp::presolve::Presolved;

  // A model presolve visibly reduces: one pinned column, one slack row.
  Model model;
  const VarId x = model.add_continuous(0.0, 10.0, "x");
  const VarId f = model.add_continuous(3.0, 3.0, "f");
  model.add_constraint(LinExpr(x) + LinExpr(f), Relation::kLe, LinExpr(100.0),
                       "slack");
  model.add_constraint(LinExpr(x) - LinExpr(f), Relation::kLe, LinExpr(4.0),
                       "tight");
  model.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(f));

  const Presolved pristine = presolve(model);
  ASSERT_FALSE(pristine.infeasible);
  ASSERT_GT(pristine.stats.cols_removed, 0u);
  {
    const CheckReport clean = audit_presolve(model, pristine);
    ASSERT_TRUE(clean.clean()) << render_all(clean);
  }

  {
    // MCS-F301: stats counter disagrees with the reduction log.
    Presolved corrupted = presolve(model);
    corrupted.stats.rows_removed += 1;
    const CheckReport report = audit_presolve(model, corrupted);
    EXPECT_TRUE(report.has_rule("MCS-F301")) << render_all(report);
  }
  {
    // MCS-F301: log entry lost while the map still records the removal.
    Presolved corrupted = presolve(model);
    corrupted.log.clear();
    const CheckReport report = audit_presolve(model, corrupted);
    EXPECT_TRUE(report.has_rule("MCS-F301")) << render_all(report);
  }
  {
    // MCS-F301: map no longer a monotone dense embedding.
    Presolved corrupted = presolve(model);
    corrupted.map.col_map[x.index] = 7;
    const CheckReport report = audit_presolve(model, corrupted);
    EXPECT_TRUE(report.has_rule("MCS-F301")) << render_all(report);
  }
  {
    // MCS-F302: reduced domain wider than the original.
    Presolved corrupted = presolve(model);
    const std::size_t rx = corrupted.map.col_map[x.index];
    ASSERT_NE(rx, kRemoved);
    corrupted.reduced.set_bounds(VarId{rx}, -5.0, 50.0);
    const CheckReport report = audit_presolve(model, corrupted);
    EXPECT_TRUE(report.has_rule("MCS-F302")) << render_all(report);
  }
  {
    // MCS-F302: fixed value outside the original bounds.
    Presolved corrupted = presolve(model);
    ASSERT_EQ(corrupted.map.col_map[f.index], kRemoved);
    corrupted.map.fixed_value[f.index] = 99.0;
    const CheckReport report = audit_presolve(model, corrupted);
    EXPECT_TRUE(report.has_rule("MCS-F302")) << render_all(report);
  }

  // A genuinely optimal point audits clean; corruptions fire F303/F304.
  const std::vector<double> optimum = {7.0, 3.0};  // x - f <= 4 binds
  {
    const CheckReport clean = audit_postsolve(model, optimum, 10.0);
    EXPECT_TRUE(clean.clean()) << render_all(clean);
  }
  {
    // MCS-F303: bound violation.
    const CheckReport report =
        audit_postsolve(model, {12.0, 3.0}, 15.0);
    EXPECT_TRUE(report.has_rule("MCS-F303")) << render_all(report);
  }
  {
    // MCS-F303: row violation within bounds.
    const CheckReport report = audit_postsolve(model, {10.0, 3.0}, 13.0);
    EXPECT_TRUE(report.has_rule("MCS-F303")) << render_all(report);
  }
  {
    // MCS-F304: objective transfer mismatch.
    const CheckReport report = audit_postsolve(model, optimum, 11.5);
    EXPECT_TRUE(report.has_rule("MCS-F304")) << render_all(report);
    EXPECT_FALSE(report.has_rule("MCS-F303")) << render_all(report);
  }
}

TEST(CheckLint, EveryEmittableRuleIsCatalogued) {
  // The catalogue is the contract with docs/LINTING.md: ordered by ID,
  // unique, and resolvable through find_rule.
  const auto& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t r = 1; r < catalog.size(); ++r) {
    EXPECT_LT(std::string(catalog[r - 1].id), std::string(catalog[r].id));
  }
  for (const auto& rule : catalog) {
    const auto* found = find_rule(rule.id);
    ASSERT_NE(found, nullptr) << rule.id;
    EXPECT_EQ(found, &rule);
    EXPECT_NE(std::string(rule.summary), "");
    EXPECT_NE(std::string(rule.reference), "");
  }
  EXPECT_EQ(find_rule("MCS-F999"), nullptr);
}

TEST(CheckLint, DocsMirrorTheRuleCatalogue) {
  // docs/LINTING.md promises a row per catalogued rule with the matching
  // severity; adding a rule without documenting it fails here.
  std::ifstream doc(std::string(MCS_SOURCE_DIR) + "/docs/LINTING.md");
  ASSERT_TRUE(doc.is_open()) << "docs/LINTING.md missing";
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();
  for (const auto& rule : rule_catalog()) {
    const std::string row = std::string("| ") + rule.id + " | " +
                            mcs::check::to_string(rule.severity) + " |";
    EXPECT_NE(text.find(row), std::string::npos)
        << "docs/LINTING.md has no row for " << rule.id << " with severity "
        << mcs::check::to_string(rule.severity);
  }
}

TEST(CheckLint, CleanFixtureHasNoDiagnostics) {
  // Baseline for the negative tests above: untouched fixture is clean, so
  // every firing really is caused by the corruption.
  Fixture f;
  const CheckReport report = f.lint();
  EXPECT_TRUE(report.clean()) << render_all(report);
  const CheckReport diff = verify_patched_equivalence(
      f.milp, f.tasks, f.i, f.t, FormulationCase::kNls, false);
  EXPECT_TRUE(diff.clean()) << render_all(diff);
}

}  // namespace
