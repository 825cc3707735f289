// Differential tests for the two simplex kernels (lp/simplex.hpp).
//
// The load-bearing property is kernel equivalence: the sparse revised
// simplex (PFI basis, Devex pricing, bound-flipping dual ratio test) and
// the dense full-tableau reference implement one contract, so every model
// must solve to the same status and — at MILP gap 0 — the same objective
// and bound through either.  The adversarial section drives both kernels
// through the classic degeneracy traps (Beale's cycling example, the
// Klee–Minty cube, equal-bounds-saturated models); the differential
// section sweeps randomized delay MILPs, warm-started re-solves, a
// greedy-round patch chain, and the committed workload corpus, mirroring
// test_lp_presolve.cpp.
//
// What is deliberately NOT asserted: cross-kernel identity of pivot
// sequences, node counts, or vertex choices.  Degenerate LPs have many
// alternate optima; the kernels are free to land on different ones as long
// as status and objective agree.  Determinism is asserted per kernel: the
// same kernel on the same model must reproduce its result bit-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "gen/generator.hpp"
#include "lp/milp.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "rt/io.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::build_delay_milp;
using mcs::analysis::DelayMilp;
using mcs::analysis::FormulationCase;
using mcs::analysis::update_delay_milp;
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
using mcs::lp::term;
using mcs::lp::VarId;
using mcs::rt::TaskIndex;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::support::Rng;

constexpr double kTol = 1e-6;

/// Solves the LP relaxation through both kernels and requires agreement to
/// 1e-9 relative on the objective (when optimal) and exact agreement on
/// status.  Returns the sparse solution for further checks.
LpSolution expect_lp_kernels_agree(const Model& model, const char* label,
                                   SimplexOptions options = {}) {
  options.kernel = SimplexKernel::kSparse;
  const LpSolution sparse = solve_lp(model, options);
  options.kernel = SimplexKernel::kDense;
  const LpSolution dense = solve_lp(model, options);
  EXPECT_EQ(sparse.status, dense.status) << label;
  if (sparse.status == SolveStatus::kOptimal &&
      dense.status == SolveStatus::kOptimal) {
    const double scale =
        std::max({1.0, std::abs(sparse.objective), std::abs(dense.objective)});
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-9 * scale) << label;
    EXPECT_TRUE(model.is_feasible(sparse.values, 1e-6)) << label;
    EXPECT_TRUE(model.is_feasible(dense.values, 1e-6)) << label;
  }
  return sparse;
}

// --- Adversarial LPs ---------------------------------------------------------

/// Beale's classic cycling example: the textbook pivot sequence under
/// Dantzig pricing with a naive ratio tie-break loops forever at the
/// degenerate origin vertex.  Optimal value is -1/20.
Model beale_model() {
  Model m;
  const VarId x1 = m.add_continuous(0.0, mcs::lp::kInfinity, "x1");
  const VarId x2 = m.add_continuous(0.0, mcs::lp::kInfinity, "x2");
  const VarId x3 = m.add_continuous(0.0, mcs::lp::kInfinity, "x3");
  const VarId x4 = m.add_continuous(0.0, mcs::lp::kInfinity, "x4");
  m.add_constraint(term(x1, 0.25) + term(x2, -60.0) + term(x3, -1.0 / 25.0) +
                       term(x4, 9.0),
                   Relation::kLe, 0.0, "r1");
  m.add_constraint(term(x1, 0.5) + term(x2, -90.0) + term(x3, -1.0 / 50.0) +
                       term(x4, 3.0),
                   Relation::kLe, 0.0, "r2");
  m.add_constraint(LinExpr(x3), Relation::kLe, 1.0, "cap");
  m.set_objective(Sense::kMinimize, term(x1, -0.75) + term(x2, 150.0) +
                                        term(x3, -1.0 / 50.0) + term(x4, 6.0));
  return m;
}

TEST(SparseKernelAdversarial, BealeCyclingExampleTerminatesOnBothKernels) {
  const Model m = beale_model();
  const LpSolution sparse = expect_lp_kernels_agree(m, "beale");
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, -0.05, 1e-9);
}

TEST(SparseKernelAdversarial, BealeUnderImmediateBlandRule) {
  // Forcing Bland's rule from the first pivot exercises the anti-cycling
  // path both kernels share; termination and the optimum must survive.
  SimplexOptions opt;
  opt.bland_threshold = 1;
  const Model m = beale_model();
  const LpSolution sparse = expect_lp_kernels_agree(m, "beale+bland", opt);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, -0.05, 1e-9);
}

TEST(SparseKernelAdversarial, KleeMintyCubeSolvesExactly) {
  // Klee–Minty, n = 8: maximize sum 2^(n-j) x_j over the twisted cube
  //   2 * sum_{j<i} 2^(i-j) x_j + x_i <= 5^i.
  // Dantzig pricing visits an exponential number of vertices on the worst
  // ordering; any pricing rule must still terminate at x_n = 5^n.
  constexpr std::size_t n = 8;
  Model m;
  std::vector<VarId> x;
  for (std::size_t j = 0; j < n; ++j) {
    x.push_back(m.add_continuous(0.0, mcs::lp::kInfinity,
                                 "x" + std::to_string(j + 1)));
  }
  double rhs = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    rhs *= 5.0;  // 5^(i+1)
    LinExpr lhs;
    for (std::size_t j = 0; j < i; ++j) {
      lhs += term(x[j], 2.0 * std::exp2(static_cast<double>(i - j)));
    }
    lhs += LinExpr(x[i]);
    m.add_constraint(lhs, Relation::kLe, rhs, "kv" + std::to_string(i + 1));
  }
  LinExpr obj;
  for (std::size_t j = 0; j < n; ++j) {
    obj += term(x[j], std::exp2(static_cast<double>(n - 1 - j)));
  }
  m.set_objective(Sense::kMaximize, obj);

  const LpSolution sparse = expect_lp_kernels_agree(m, "klee-minty");
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, 390625.0, 1e-9 * 390625.0);  // 5^8
}

TEST(SparseKernelAdversarial, EqualBoundsCorpusAgreesAndSkipsFixedColumns) {
  // Models saturated with lower == upper columns: the fixed columns must
  // never enter a pricing scan (satellite counter fixed_cols_skipped) and
  // the heavy degeneracy they induce must not split the kernels.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed * 977 + 11);
    Model m;
    std::vector<VarId> vars;
    const std::size_t n = 12;
    std::size_t fixed = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double lo = rng.uniform(0.0, 5.0);
      if (rng.uniform01() < 0.5) {
        vars.push_back(m.add_continuous(lo, lo, "f" + std::to_string(j)));
        ++fixed;
      } else {
        vars.push_back(m.add_continuous(lo, lo + rng.uniform(1.0, 10.0),
                                        "x" + std::to_string(j)));
      }
    }
    for (std::size_t r = 0; r < 8; ++r) {
      LinExpr lhs;
      double activity_hi = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.uniform01() < 0.5) continue;
        const double a = rng.uniform(-4.0, 4.0);
        lhs += term(vars[j], a);
        activity_hi += std::abs(a) * 15.0;
      }
      m.add_constraint(lhs, Relation::kLe,
                       rng.uniform(0.2, 0.8) * activity_hi,
                       "r" + std::to_string(r));
    }
    LinExpr obj;
    for (std::size_t j = 0; j < n; ++j) {
      obj += term(vars[j], rng.uniform(-1.0, 1.0));
    }
    m.set_objective(Sense::kMaximize, obj);

    const std::string label = "equal-bounds seed " + std::to_string(seed);
    expect_lp_kernels_agree(m, label.c_str());

    if (fixed == 0) continue;
    for (const SimplexKernel kernel :
         {SimplexKernel::kSparse, SimplexKernel::kDense}) {
      SimplexOptions opt;
      opt.kernel = kernel;
      SimplexSolver solver(m, opt);
      (void)solver.solve();
      EXPECT_GT(solver.stats().fixed_cols_skipped, 0u) << label;
    }
  }
}

// --- Differential MILP corpus: sparse == dense at gap 0 ----------------------

/// Solves through both kernels at gap 0 and requires certificate identity:
/// status, incumbent presence, objective, and best bound.
void expect_kernels_exact(const Model& model, MilpOptions opt,
                          const char* label) {
  opt.relative_gap = 0.0;
  opt.lp.kernel = SimplexKernel::kSparse;
  const MilpResult sparse = solve_milp(model, opt);
  opt.lp.kernel = SimplexKernel::kDense;
  const MilpResult dense = solve_milp(model, opt);

  ASSERT_EQ(sparse.status, dense.status) << label;
  ASSERT_EQ(sparse.has_incumbent, dense.has_incumbent) << label;
  if (!dense.has_incumbent) return;
  const double scale = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(sparse.objective, dense.objective, kTol * scale) << label;
  EXPECT_NEAR(sparse.best_bound, dense.best_bound, kTol * scale) << label;
  EXPECT_TRUE(model.is_feasible(sparse.values, 1e-6)) << label;
}

class SparseKernelDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseKernelDifferential, RandomDelayMilpsMatchAcrossKernels) {
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
  // Half-period window as in test_lp_presolve.cpp: the full window buys
  // tree size, not coverage.
  const DelayMilp milp =
      build_delay_milp(tasks, i, tasks[i].period / 2, FormulationCase::kNls,
                       /*ignore_ls=*/false);

  MilpOptions opt;
  opt.max_nodes = 50000;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }
  expect_kernels_exact(milp.model, opt, "random delay MILP");
}

TEST_P(SparseKernelDifferential, WarmStartedSolvesMatchAcrossKernels) {
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
  // Seed both kernels with the same incumbent, as the engine's greedy
  // rounds do; exactness must survive the seeded search.
  const MilpResult first = solve_milp(milp.model, opt);
  if (!first.has_incumbent) return;
  opt.start_values = first.values;
  expect_kernels_exact(milp.model, opt, "warm-started delay MILP");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseKernelDifferential,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(SparseKernelSession, GreedyRoundPatchChainMatchesDenseFreshSolves) {
  // The engine's cache-hit path: one patchable formulation, LS-marking
  // flips applied through update_delay_milp between solves, and the
  // previous round's incumbent carried in.  Every sparse-kernel solve of
  // the patched model must match a dense-kernel solve without the carried
  // incumbent — the strongest cross-kernel claim the warm-restart
  // machinery has to honor.
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
  opt.relative_gap = 0.0;
  opt.lp.kernel = SimplexKernel::kSparse;
  opt.branch_priority.assign(milp.model.num_variables(), 0);
  for (const VarId alpha : milp.alpha_vars) {
    opt.branch_priority[alpha.index] = 1;
  }

  for (int round = 0; round < 4; ++round) {
    const std::size_t flip = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) - 1));
    tasks[flip].latency_sensitive = !tasks[flip].latency_sensitive;
    update_delay_milp(milp, tasks, i, t, /*ignore_ls=*/false);

    const MilpResult patched = solve_milp(milp.model, opt);

    MilpOptions fresh = opt;
    fresh.lp.kernel = SimplexKernel::kDense;
    fresh.start_values.clear();
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

TEST(SparseKernelCorpus, CommittedWorkloadFormulationsMatchAcrossKernels) {
  const char* files[] = {"/workloads/quickstart.wl",
                         "/workloads/sensor_chain.wl"};
  for (const char* file : files) {
    const mcs::rt::Workload workload =
        mcs::rt::load_workload_file(std::string(MCS_SOURCE_DIR) + file);
    const TaskSet& tasks = workload.tasks;
    for (TaskIndex i = 0; i < tasks.size(); ++i) {
      // Half-deadline window, same trade as test_lp_presolve.cpp.
      const Time t = tasks[i].deadline / 2;
      const DelayMilp milp = build_delay_milp(
          tasks, i, t, FormulationCase::kNls, /*ignore_ls=*/false);
      MilpOptions opt;
      opt.max_nodes = 50000;
      opt.branch_priority.assign(milp.model.num_variables(), 0);
      for (const VarId alpha : milp.alpha_vars) {
        opt.branch_priority[alpha.index] = 1;
      }
      expect_kernels_exact(milp.model, opt, file);
    }
  }
}

TEST(SparseKernelDeterminism, EachKernelReproducesItselfBitIdentically) {
  // Determinism is per kernel: two fresh solves of the same model through
  // the same kernel must agree bit-for-bit on everything, including tree
  // shape.  (Cross-kernel tree identity is NOT required — degenerate LPs
  // have alternate optimal vertices and the kernels may branch apart.)
  Rng rng(4242);
  mcs::gen::GeneratorConfig cfg;
  cfg.num_tasks = 5;
  cfg.utilization = 0.45;
  cfg.gamma = 0.3;
  TaskSet tasks = mcs::gen::generate_task_set(cfg, rng);
  const auto lowest = tasks.by_priority().back();
  const Time window = tasks[lowest].deadline - tasks[lowest].exec -
                      tasks[lowest].copy_out;
  const DelayMilp milp =
      build_delay_milp(tasks, lowest, std::max<Time>(window, 0),
                       FormulationCase::kNls);

  for (const SimplexKernel kernel :
       {SimplexKernel::kSparse, SimplexKernel::kDense}) {
    MilpOptions opt;
    opt.max_nodes = 30000;
    opt.relative_gap = 0.02;
    opt.lp.kernel = kernel;
    const MilpResult a = solve_milp(milp.model, opt);
    const MilpResult b = solve_milp(milp.model, opt);
    const char* label =
        kernel == SimplexKernel::kSparse ? "sparse" : "dense";
    ASSERT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.nodes, b.nodes) << label;
    EXPECT_EQ(a.lp_iterations, b.lp_iterations) << label;
    EXPECT_EQ(a.objective, b.objective) << label;  // bitwise
    EXPECT_EQ(a.best_bound, b.best_bound) << label;
    EXPECT_EQ(a.values, b.values) << label;
  }
}

}  // namespace
