// Branch & bound MILP solver over the bounded-variable simplex.
//
// Exactness & safety contract: when the node budget is not exhausted the
// returned incumbent is a true optimum of the model.  When the budget runs
// out, `best_bound` is still a valid dual bound (an upper bound for
// maximization problems, lower for minimization); the schedulability
// analysis relies on this to stay safe under solver budget limits
// (DESIGN.md §5.7).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace mcs::lp {

/// Relative round-off of the objective values a search reports: an
/// incumbent's objective, the dual bound and the final best_bound differ
/// from what exact arithmetic on the same path gives by far less than this
/// times max(1, |value|).  Measured on the Figure-2(c) delay MILPs: at most
/// 5e-16 (DESIGN.md §5.15).
inline constexpr double kObjectiveRoundoff = 1e-9;

struct MilpOptions {
  SimplexOptions lp;
  std::size_t max_nodes = 200000;
  /// Terminate once the best open bound is within this relative distance of
  /// the incumbent (0 = prove optimality).  On gap termination the result
  /// status is kOptimal-like with `best_bound` still a valid dual bound —
  /// consumers needing safety must read best_bound, not objective.
  double relative_gap = 0.0;
  bool enable_rounding_heuristic = true;
  /// Optional per-variable branching priorities (indexed by VarId).  Among
  /// fractional integral variables, the highest priority class is branched
  /// first (most-fractional within the class).  Empty = uniform priority.
  std::vector<int> branch_priority;
  /// Reoptimize each node's relaxation with the dual simplex from its
  /// parent's optimal basis instead of solving cold.  Identical results up
  /// to tolerances (the warm path falls back to a cold solve on trouble);
  /// off mainly for differential testing.
  bool use_warm_start = true;
  /// Run the presolve reduction pipeline (lp/presolve.hpp) on the model
  /// before branch & bound.  Exact: reductions preserve the MILP optimum,
  /// and results are postsolved back to the original variable space, so
  /// callers see the same contract either way.  Off mainly for
  /// differential testing (tests/test_lp_presolve.cpp compares both paths
  /// at gap 0).
  bool use_presolve = true;
  /// Optional starting incumbent, one value per model variable.  Checked
  /// for bound/constraint feasibility and integrality before adoption;
  /// anything infeasible is silently ignored.  Lets the analysis fixpoint
  /// loop carry the previous round's solution in so pruning starts
  /// immediately.
  std::vector<double> start_values;
};

struct MilpResult {
  SolveStatus status = SolveStatus::kNodeLimit;
  bool has_incumbent = false;
  /// Incumbent objective in the model's sense (valid iff has_incumbent).
  double objective = 0.0;
  /// Valid dual bound on the true optimum (always set unless infeasible /
  /// unbounded): >= optimum for maximization, <= for minimization.
  double best_bound = 0.0;
  /// Incumbent assignment, one value per model variable.  When simplex
  /// round-off leaves it outside the model at 10x the LP feasibility
  /// tolerance, continuous values are clamped onto the bounds that rows
  /// with one continuous column imply, if that makes it feasible;
  /// `objective` is not re-evaluated, so the two may differ by that
  /// round-off.
  std::vector<double> values;
  std::size_t nodes = 0;
  /// Open nodes discarded without an LP solve because their inherited bound
  /// could not beat the incumbent.
  std::size_t nodes_pruned = 0;
  std::size_t lp_iterations = 0;
  /// True when the search stopped at options.relative_gap rather than
  /// proving optimality; objective and best_bound then differ by at most
  /// that factor.
  bool gap_terminated = false;
};

/// What a stop rule sees at a branch & bound loop top, in the model's sense
/// (and, under presolve, in the reduced model's objective, which equals the
/// original one on corresponding points).
struct SearchBounds {
  /// Incumbent objective; -infinity (maximization) or +infinity
  /// (minimization) while there is none.
  double incumbent = 0.0;
  /// Global dual bound: the best bound over every open node (the plunge
  /// child, the sibling trail, the best-first queue head) and the subtrees
  /// dropped within the relative gap.  +-infinity before the root is solved.
  double dual_bound = 0.0;
};

/// Returns true to pause the search at this loop top.
using StopRule = std::function<bool(const SearchBounds&)>;

/// A branch & bound search that a stop rule can pause and a later run()
/// resume.  A run without a stop rule is exactly solve_milp; a search that
/// is paused and then finished returns bit for bit what an uninterrupted
/// run returns (same result fields, same nodes, same LP iterations), since
/// a pause only returns from a loop top: the one before presolve (no
/// incumbent, an infinite dual bound; a search paused there has done no
/// work and runs presolve first when resumed) or the one before the next
/// node is popped.  A resumed search reads the rule again at the loop top
/// it paused at.
///
/// Along one search the incumbent objective only improves and the dual
/// bound only tightens (up to LP round-off), so the final `best_bound` lies
/// between the two values a stop rule saw at any earlier loop top.  The
/// analysis engine's decision mode builds on that (DESIGN.md §5.15).
class MilpSearch {
 public:
  /// Prepares a search of `model`; nothing is solved before run().  The
  /// model must stay alive and unchanged until the first run() returns.
  MilpSearch(const Model& model, const MilpOptions& options);
  ~MilpSearch();
  MilpSearch(MilpSearch&&) noexcept;
  MilpSearch& operator=(MilpSearch&&) noexcept;

  /// Runs until the search finishes (returns true; result() holds the
  /// answer) or `stop` fires at a loop top (returns false).  A paused
  /// search keeps a copy of the model, so the caller may change or drop
  /// its own before resuming.
  bool run(const StopRule& stop = {});
  bool finished() const noexcept;
  /// The finished search's result.
  const MilpResult& result() const;

 private:
  friend MilpResult solve_milp(const Model& model, const MilpOptions& options);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Solves `model` to optimality (or budget exhaustion).  The model is not
/// modified.  Deterministic for a fixed model and options: every call
/// builds its own presolved model, clamped root copy and simplex tableaus,
/// so no solver state carries from one call to the next.  Callers that
/// re-solve a patched model (the analysis engine's formulation cache) carry
/// only the incumbent, through `start_values`.
MilpResult solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace mcs::lp
