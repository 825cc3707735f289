// Round-trip tests of the CPLEX-LP writer/reader pair (lp/lp_writer.hpp,
// lp/lp_reader.hpp): read_lp_format(write_lp_format(M)) must be
// structurally identical to M — positionally, via check::diff_models with
// name comparison off (the writer may sanitize/uniquify names).  Also
// covers the writer fixes that the linter forced: name-collision
// uniquification and the objective constant surviving the trip.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/milp_formulation.hpp"
#include "check/diagnostics.hpp"
#include "check/model_lint.hpp"
#include "gen/generator.hpp"
#include "lp/lp_reader.hpp"
#include "lp/lp_writer.hpp"
#include "lp/model.hpp"
#include "lp/presolve.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::check::CheckReport;
using mcs::check::DiffOptions;
using mcs::check::diff_models;
using mcs::lp::kInfinity;
using mcs::lp::LinExpr;
using mcs::lp::LpParseError;
using mcs::lp::Model;
using mcs::lp::read_lp_format;
using mcs::lp::Relation;
using mcs::lp::Sense;
using mcs::lp::to_lp_format;
using mcs::lp::VarId;
using mcs::rt::Task;
using mcs::rt::TaskSet;
using mcs::rt::Time;

std::string render_all(const CheckReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += mcs::check::render(d) + "\n";
  }
  return out;
}

void expect_roundtrip(const Model& model) {
  const std::string text = to_lp_format(model);
  Model reparsed;
  ASSERT_NO_THROW(reparsed = read_lp_format(text)) << text;
  DiffOptions options;
  options.compare_names = false;
  const CheckReport report = diff_models(model, reparsed, options);
  EXPECT_TRUE(report.clean()) << render_all(report) << "\n" << text;
}

TEST(LpRoundTrip, SmallMixedModel) {
  Model model;
  const VarId x = model.add_continuous(0.0, 10.0, "x");
  const VarId y = model.add_binary("y");
  const VarId z = model.add_integer(-3.0, 8.0, "z");
  model.add_constraint(LinExpr(x) + 2.0 * LinExpr(y), Relation::kLe,
                       LinExpr(7.5), "cap");
  model.add_constraint(LinExpr(z) - LinExpr(x), Relation::kGe, LinExpr(-2.0),
                       "link");
  model.add_constraint(LinExpr(y) + LinExpr(z), Relation::kEq, LinExpr(3.0),
                       "fix");
  model.set_objective(Sense::kMaximize,
                      LinExpr(x) + 0.5 * LinExpr(y) - LinExpr(z));
  expect_roundtrip(model);
}

TEST(LpRoundTrip, FreeAndUnboundedVariables) {
  Model model;
  const VarId free_var = model.add_continuous(-kInfinity, kInfinity, "f");
  const VarId lower_only = model.add_continuous(2.0, kInfinity, "lo");
  const VarId upper_only = model.add_continuous(-kInfinity, 5.0, "hi");
  model.add_constraint(LinExpr(free_var) + LinExpr(lower_only) +
                           LinExpr(upper_only),
                       Relation::kLe, LinExpr(100.0), "sum");
  model.set_objective(Sense::kMinimize, LinExpr(free_var));
  expect_roundtrip(model);
}

TEST(LpRoundTrip, ObjectiveConstantSurvives) {
  // Regression: the writer used to drop the objective's constant term into
  // a comment, so read(write(M)) lost it.
  Model model;
  const VarId x = model.add_continuous(0.0, 4.0, "x");
  model.add_constraint(LinExpr(x), Relation::kLe, LinExpr(4.0), "cap");
  model.set_objective(Sense::kMaximize, LinExpr(x) + LinExpr(12.5));
  expect_roundtrip(model);

  const Model reparsed = read_lp_format(to_lp_format(model));
  EXPECT_DOUBLE_EQ(reparsed.objective().constant(), 12.5);
}

TEST(LpRoundTrip, SanitizedNameCollisionsAreUniquified) {
  // Regression: "a b" and "a_b" both sanitize to "a_b"; the writer must
  // uniquify or the reader would merge two columns into one.
  Model model;
  const VarId v1 = model.add_continuous(0.0, 1.0, "a b");
  const VarId v2 = model.add_continuous(0.0, 2.0, "a_b");
  const VarId v3 = model.add_continuous(0.0, 3.0, "a-b");
  model.add_constraint(LinExpr(v1) + LinExpr(v2) + LinExpr(v3), Relation::kLe,
                       LinExpr(4.0), "weird name!");
  model.add_constraint(LinExpr(v1), Relation::kGe, LinExpr(0.5),
                       "weird name?");
  model.set_objective(Sense::kMaximize, LinExpr(v1) + LinExpr(v2));
  expect_roundtrip(model);

  const Model reparsed = read_lp_format(to_lp_format(model));
  ASSERT_EQ(reparsed.num_variables(), 3u);
  EXPECT_EQ(reparsed.variables()[0].upper, 1.0);
  EXPECT_EQ(reparsed.variables()[1].upper, 2.0);
  EXPECT_EQ(reparsed.variables()[2].upper, 3.0);
}

TEST(LpRoundTrip, FixedAndNegativeBounds) {
  Model model;
  const VarId fixed = model.add_continuous(3.0, 3.0, "pinned");
  const VarId negative = model.add_continuous(-10.0, -1.0, "neg");
  const VarId wide = model.add_integer(-100.0, 100.0, "wide");
  model.add_constraint(LinExpr(fixed) + LinExpr(negative) + LinExpr(wide),
                       Relation::kEq, LinExpr(0.0), "balance");
  model.set_objective(Sense::kMinimize, LinExpr(wide));
  expect_roundtrip(model);
}

TEST(LpRoundTrip, ZeroConstraintModel) {
  // Presolve can eliminate every row of a trivial model; the written file
  // then has an empty Subject To section and carries all structure in
  // Bounds.
  Model model;
  const VarId x = model.add_continuous(1.0, 6.0, "x");
  const VarId b = model.add_binary("b");
  const VarId n = model.add_integer(-4.0, 4.0, "n");
  model.set_objective(Sense::kMaximize,
                      LinExpr(x) + 3.0 * LinExpr(b) - LinExpr(n));
  expect_roundtrip(model);
}

TEST(LpRoundTrip, AllVariablesFixed) {
  // Every column pinned (lower == upper), including at zero and at a
  // negative value — the form presolve leaves behind when a patch fixes a
  // whole column family.
  Model model;
  const VarId a = model.add_continuous(0.0, 0.0, "a");
  const VarId b = model.add_continuous(-2.5, -2.5, "b");
  const VarId c = model.add_integer(7.0, 7.0, "c");
  model.add_constraint(LinExpr(a) + LinExpr(b) + LinExpr(c), Relation::kLe,
                       LinExpr(10.0), "cap");
  model.set_objective(Sense::kMinimize, LinExpr(a) + LinExpr(c));
  expect_roundtrip(model);
}

TEST(LpRoundTrip, ZeroVariableModel) {
  // The fully-reduced endpoint: presolve fixed everything and removed all
  // rows; only the objective constant is left.  The writer must emit a
  // parseable file and the constant must survive.
  Model model;
  model.set_objective(Sense::kMaximize, LinExpr(12.5));
  expect_roundtrip(model);
  const Model reparsed = read_lp_format(to_lp_format(model));
  EXPECT_EQ(reparsed.num_variables(), 0u);
  EXPECT_EQ(reparsed.num_constraints(), 0u);
  EXPECT_DOUBLE_EQ(reparsed.objective().constant(), 12.5);

  // Same with an empty (zero) objective.
  Model empty;
  expect_roundtrip(empty);
}

TEST(LpRoundTrip, PresolveReducedFormulationsRoundTrip) {
  // Whatever shape presolve leaves a delay MILP in — fewer rows, tightened
  // bounds, strengthened coefficients, possibly no rows at all — must
  // still survive the write -> reparse -> diff trip (MCS-F201..F205
  // clean).
  const TaskSet tasks({
      [] {
        Task t;
        t.name = "ls";
        t.exec = 2;
        t.copy_in = t.copy_out = 1;
        t.period = 25;
        t.deadline = 12;
        t.priority = 0;
        t.latency_sensitive = true;
        return t;
      }(),
      [] {
        Task t;
        t.name = "mid";
        t.exec = 3;
        t.copy_in = t.copy_out = 2;
        t.period = 50;
        t.deadline = 40;
        t.priority = 1;
        return t;
      }(),
      [] {
        Task t;
        t.name = "bulk";
        t.exec = 6;
        t.copy_in = t.copy_out = 2;
        t.period = 100;
        t.deadline = 90;
        t.priority = 2;
        return t;
      }(),
  });
  using mcs::analysis::build_delay_milp;
  using mcs::analysis::FormulationCase;
  for (mcs::rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    const Time t = tasks[i].deadline;
    const Model& model =
        build_delay_milp(tasks, i, t, FormulationCase::kNls, false, true)
            .model;
    const mcs::lp::presolve::Presolved pre = mcs::lp::presolve::presolve(model);
    ASSERT_FALSE(pre.infeasible);
    expect_roundtrip(pre.reduced);
  }
}

TEST(LpRoundTrip, EveryDelayMilpRoundTrips) {
  const TaskSet tasks({
      [] {
        Task t;
        t.name = "s";
        t.exec = 2;
        t.copy_in = t.copy_out = 1;
        t.period = 30;
        t.deadline = 10;
        t.priority = 0;
        t.latency_sensitive = true;
        return t;
      }(),
      [] {
        Task t;
        t.name = "a";
        t.exec = 4;
        t.copy_in = t.copy_out = 2;
        t.period = 40;
        t.deadline = 30;
        t.priority = 1;
        return t;
      }(),
      [] {
        Task t;
        t.name = "b";
        t.exec = 5;
        t.copy_in = t.copy_out = 2;
        t.period = 80;
        t.deadline = 70;
        t.priority = 2;
        return t;
      }(),
  });
  using mcs::analysis::build_delay_milp;
  using mcs::analysis::FormulationCase;
  for (mcs::rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    const Time t = tasks[i].deadline;
    expect_roundtrip(
        build_delay_milp(tasks, i, t, FormulationCase::kNls, true, false)
            .model);
    expect_roundtrip(
        build_delay_milp(tasks, i, t, FormulationCase::kNls, false, true)
            .model);
    if (tasks[i].latency_sensitive) {
      expect_roundtrip(
          build_delay_milp(tasks, i, t, FormulationCase::kLsCaseA, false, true)
              .model);
      expect_roundtrip(
          build_delay_milp(tasks, i, 0, FormulationCase::kLsCaseB, false, true)
              .model);
    }
  }
}

TEST(LpRoundTrip, RandomizedFormulationCorpus) {
  mcs::support::Rng rng(0xDEAD5EED);
  mcs::gen::GeneratorConfig config;
  config.num_tasks = 4;
  for (int trial = 0; trial < 10; ++trial) {
    config.utilization = 0.3 + 0.05 * trial;
    TaskSet tasks = mcs::gen::generate_task_set(config, rng);
    tasks[0].latency_sensitive = true;
    for (mcs::rt::TaskIndex i = 0; i < tasks.size(); ++i) {
      expect_roundtrip(
          build_delay_milp(tasks, i, tasks[i].deadline,
                           mcs::analysis::FormulationCase::kNls, false, true)
              .model);
    }
  }
}

TEST(LpReader, RejectsMalformedInput) {
  EXPECT_THROW(read_lp_format("not an lp file at all"), LpParseError);
  EXPECT_THROW(read_lp_format("Maximize\n obj: x +\nSubject To\nEnd\n"),
               LpParseError);
  EXPECT_THROW(read_lp_format("Maximize\n obj: x\nSubject To\n"
                              " c1: x <=\nEnd\n"),
               LpParseError);
}

TEST(LpReader, ParsesHandWrittenFile) {
  const std::string text =
      "\\ comment line\n"
      "Maximize\n"
      " obj: + 2 x + y\n"
      "Subject To\n"
      " c1: + x + y <= 10\n"
      " c2: + x - y >= -5\n"
      "Bounds\n"
      " 0 <= x <= 6\n"
      " y free\n"
      "End\n";
  const Model model = read_lp_format(text);
  ASSERT_EQ(model.num_variables(), 2u);
  ASSERT_EQ(model.num_constraints(), 2u);
  EXPECT_EQ(model.objective_sense(), Sense::kMaximize);
  EXPECT_EQ(model.variables()[0].upper, 6.0);
  EXPECT_EQ(model.variables()[1].lower, -kInfinity);
  EXPECT_EQ(model.row(0).relation, Relation::kLe);
  EXPECT_EQ(model.row(0).rhs, 10.0);
  EXPECT_EQ(model.row(1).rhs, -5.0);
}

}  // namespace
