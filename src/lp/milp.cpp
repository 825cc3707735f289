#include "lp/milp.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>

#include "lp/presolve.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::lp {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// A relaxation value within this distance of an integer counts as
/// integral.
constexpr double kIntegralityTol = 1e-6;

/// Prune nodes whose relaxation bound does not beat the incumbent by more
/// than this absolute amount.
constexpr double kAbsoluteGap = 1e-7;

/// Run the fix-and-complete rounding heuristic every this many nodes.
constexpr std::size_t kHeuristicPeriod = 64;

/// A node whose bounds differ from the solver's current tableau by at most
/// this many deltas reoptimizes in situ with the dual simplex (each delta
/// violates at most one basic row, so the repair stays a handful of pivots);
/// anything farther solves cold — cheaper than a long dual repair.
constexpr std::size_t kWarmDeltaMax = 4;

/// Capacity of the sibling trail: the most recent unexplored siblings along
/// the current plunge are kept in a LIFO and explored before any best-first
/// pop.  Backtracking to a recent sibling changes only a few bounds, so its
/// relaxation stays a warm dual restart; siblings falling off the trail go
/// to the best-first queue (and typically solve cold when reached).
constexpr std::size_t kTrailMax = 8;

/// Per-node storage: one bound delta `(var_k, lo, hi)` against the parent
/// node instead of a full copy of every integral bound.  The full bound
/// vector of a node is reconstructed by walking the parent chain from the
/// root and applying deltas in order.
struct NodeDelta {
  std::size_t parent = npos;
  std::size_t var_k = npos;  ///< index into int_vars_; npos for the root
  double lo = 0.0;
  double hi = 0.0;
};

/// Queue entry: plain POD so heap operations move a few words, not vectors.
struct OpenNode {
  double bound = 0.0;  ///< parent relaxation objective (model sense)
  std::size_t id = 0;
  std::size_t depth = 0;
  std::size_t delta = npos;  ///< index into the delta arena
};

/// Ordering for the best-first queue: better bound first; on ties prefer
/// deeper nodes (finds integral incumbents sooner), then FIFO.
struct NodeOrder {
  bool maximize;
  bool operator()(const OpenNode& a, const OpenNode& b) const {
    if (a.bound != b.bound) {
      // priority_queue pops the *largest*; define "largest" = best bound.
      return maximize ? a.bound < b.bound : a.bound > b.bound;
    }
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.id > b.id;  // older nodes first
  }
};

using IntBounds = std::vector<std::pair<double, double>>;

class BranchAndBound {
 public:
  explicit BranchAndBound(const Model& model)
      : base_(model),
        maximize_(model.objective_sense() == Sense::kMaximize) {
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      if (model.variables()[i].type != VarType::kContinuous) {
        int_vars_.push_back(i);
      }
    }
  }

  /// The branch & bound search under `options`.  One search per instance.
  MilpResult run(const MilpOptions& options);

  std::size_t bound_deltas_applied() const noexcept { return deltas_; }
  std::size_t warm_solves() const noexcept {
    return solver_stat(&SimplexStats::warm_solves);
  }
  std::size_t warm_fallbacks() const noexcept {
    return solver_stat(&SimplexStats::warm_fallbacks);
  }

 private:
  /// Sets up the root: clamped integral bounds, the clamped model copy,
  /// and the node-relaxation solver over it.  Returns false when a clamped
  /// integral domain is empty (infeasible).
  bool setup_root();
  bool better(double a, double b) const {
    return maximize_ ? a > b : a < b;
  }
  double worst_value() const {
    return maximize_ ? -kInfinity : kInfinity;
  }

  std::size_t solver_stat(std::size_t SimplexStats::* field) const {
    std::size_t total = 0;
    if (main_) total += main_->stats().*field;
    if (heur_) total += heur_->stats().*field;
    return total;
  }

  LpSolution lp_solve(SimplexSolver& solver, bool warm, MilpResult& result) {
    LpSolution sol = warm ? solver.solve_warm() : solver.solve();
    result.lp_iterations += sol.iterations;
    return sol;
  }

  /// Moves `solver` (whose currently applied bounds are tracked in `cur`)
  /// to `want`, touching only the bounds that actually differ.  Returns the
  /// number of bounds changed — a proxy for how far the solver's tableau is
  /// from the target node (each change can violate at most one basic row).
  std::size_t apply_bounds(SimplexSolver& solver, IntBounds& cur,
                           const IntBounds& want) {
    std::size_t changed = 0;
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      if (cur[k] != want[k]) {
        solver.set_bounds(VarId{int_vars_[k]}, want[k].first,
                          want[k].second);
        cur[k] = want[k];
        ++deltas_;
        ++changed;
      }
    }
    return changed;
  }

  void set_one_bound(SimplexSolver& solver, IntBounds& cur, std::size_t k,
                     double lo, double hi) {
    if (cur[k] == std::make_pair(lo, hi)) return;
    solver.set_bounds(VarId{int_vars_[k]}, lo, hi);
    cur[k] = {lo, hi};
    ++deltas_;
  }

  /// Reconstructs a node's full integral-bound vector into `out` by
  /// replaying the delta chain root -> leaf (deeper deltas win).
  void bounds_for(std::size_t delta_idx, IntBounds& out) {
    out = root_bounds_;
    chain_.clear();
    for (std::size_t d = delta_idx; d != npos; d = arena_[d].parent) {
      chain_.push_back(d);
    }
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
      const NodeDelta& nd = arena_[*it];
      if (nd.var_k != npos) {
        out[nd.var_k] = {nd.lo, nd.hi};
      }
    }
  }

  /// Branching variable: among the fractional integral variables of the
  /// highest branch-priority class, the most fractional one (largest
  /// distance to the nearest integer); npos when integral within tolerance.
  std::size_t pick_branch_var(const std::vector<double>& values) const {
    std::size_t best = npos;
    double best_dist = kIntegralityTol;
    int best_prio = std::numeric_limits<int>::min();
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const double x = values[int_vars_[k]];
      const double dist = std::abs(x - std::round(x));
      if (dist <= kIntegralityTol) continue;
      const int prio = int_vars_[k] < opt_.branch_priority.size()
                           ? opt_.branch_priority[int_vars_[k]]
                           : 0;
      if (prio > best_prio || (prio == best_prio && dist > best_dist)) {
        best_prio = prio;
        best_dist = dist;
        best = k;
      }
    }
    return best;
  }

  void try_update_incumbent(const std::vector<double>& values,
                            double objective, MilpResult& result) const {
    if (!result.has_incumbent || better(objective, result.objective)) {
      result.has_incumbent = true;
      result.objective = objective;
      result.values = values;
    }
  }

  void try_seed_incumbent(MilpResult& result) const {
    if (opt_.start_values.size() != base_.num_variables()) return;
    std::vector<double> snapped = opt_.start_values;
    for (const std::size_t v : int_vars_) {
      const double r = std::round(snapped[v]);
      if (std::abs(snapped[v] - r) > kIntegralityTol) return;
      snapped[v] = r;
    }
    if (!base_.is_feasible(snapped, opt_.lp.feasibility_tol * 10.0)) return;
    result.has_incumbent = true;
    result.objective = base_.evaluate(base_.objective(), snapped);
    result.values = std::move(snapped);
  }

  /// The heuristic solver, built on first use at the root bounds (the
  /// node-1 dive instead clones main_, see run()).
  SimplexSolver& heur() {
    if (!heur_) {
      heur_ = std::make_unique<SimplexSolver>(root_model_, opt_.lp);
      heur_bounds_ = root_bounds_;
    }
    return *heur_;
  }

  /// Fix-and-complete rounding heuristic: round every integral variable to
  /// the nearest integer within its node bounds, re-solve the continuous
  /// completion, and offer the result as an incumbent.
  void rounding_heuristic(const IntBounds& node_bounds,
                          const std::vector<double>& relax_values,
                          MilpResult& result) {
    IntBounds fixed = node_bounds;
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const auto [lo, hi] = node_bounds[k];
      const double x =
          std::clamp(std::round(relax_values[int_vars_[k]]), lo, hi);
      fixed[k] = {x, x};
    }
    const std::size_t changed = apply_bounds(heur(), heur_bounds_, fixed);
    const LpSolution sol = lp_solve(
        *heur_, opt_.use_warm_start && changed <= kWarmDeltaMax, result);
    if (sol.status == SolveStatus::kOptimal) {
      try_update_incumbent(sol.values, sol.objective, result);
    }
  }

  /// LP-guided diving: repeatedly fix the most fractional integral variable
  /// to its rounded value (falling back to the opposite rounding when that
  /// makes the LP infeasible) until the relaxation comes out integral.
  /// Produces high-quality incumbents that all-at-once rounding cannot —
  /// crucial for pruning on the scheduling-analysis MILPs.  Each attempt
  /// touches only the single bound being fixed and restores it on failure.
  void dive_heuristic(const IntBounds& node_bounds, MilpResult& result) {
    const std::size_t changed = apply_bounds(heur(), heur_bounds_, node_bounds);
    dive_from(lp_solve(*heur_, opt_.use_warm_start && changed <= kWarmDeltaMax,
                       result),
              result);
  }

  /// The dive proper, from `sol`: heur_'s relaxation at its current bounds.
  void dive_from(LpSolution sol, MilpResult& result) {
    // Each pass fixes at least one variable; bound the work defensively.
    for (std::size_t pass = 0; pass <= int_vars_.size(); ++pass) {
      if (sol.status != SolveStatus::kOptimal) {
        return;
      }
      const std::size_t k = pick_branch_var(sol.values);
      if (k == npos) {
        std::vector<double> snapped = sol.values;
        for (const std::size_t v : int_vars_) {
          snapped[v] = std::round(snapped[v]);
        }
        try_update_incumbent(snapped, sol.objective, result);
        return;
      }
      const auto [lo, hi] = heur_bounds_[k];
      const double x = sol.values[int_vars_[k]];
      const double first = std::clamp(std::round(x), lo, hi);
      const double second =
          std::clamp(first > x ? std::floor(x) : std::ceil(x), lo, hi);
      bool fixed = false;
      for (const double choice : {first, second}) {
        set_one_bound(*heur_, heur_bounds_, k, choice, choice);
        const LpSolution attempt = lp_solve(*heur_, opt_.use_warm_start, result);
        if (attempt.status == SolveStatus::kOptimal) {
          sol = attempt;
          fixed = true;
          break;
        }
        if (first == second) break;
      }
      if (!fixed) {
        set_one_bound(*heur_, heur_bounds_, k, lo, hi);
        return;  // both roundings infeasible: abandon the dive
      }
    }
  }

  /// Creates a child node delta `(branch_k -> [lo, hi])` under
  /// `parent_delta` and returns its index.
  std::size_t make_child(std::size_t parent_delta, std::size_t branch_k,
                         double lo, double hi) {
    arena_.push_back(NodeDelta{parent_delta, branch_k, lo, hi});
    return arena_.size() - 1;
  }

  const Model& base_;
  MilpOptions opt_;
  bool maximize_;
  std::vector<std::size_t> int_vars_;

  IntBounds root_bounds_;
  Model root_model_;  ///< base_ with integral domains clamped finite
  std::unique_ptr<SimplexSolver> main_;  ///< node relaxations
  std::unique_ptr<SimplexSolver> heur_;  ///< rounding / diving; see heur()
  IntBounds main_bounds_;  ///< bounds currently applied to main_
  IntBounds heur_bounds_;  ///< bounds currently applied to heur_

  std::deque<NodeDelta> arena_;
  std::vector<std::size_t> chain_;  ///< scratch for bounds_for
  std::size_t deltas_ = 0;
};

bool BranchAndBound::setup_root() {
  // Integral variables need finite branching ranges; clamp huge domains
  // (safe for the objective once the relaxation is known to be bounded;
  // argmax components beyond 1e9 are out of scope).
  root_bounds_.reserve(int_vars_.size());
  for (const std::size_t v : int_vars_) {
    const Variable& mv = base_.variables()[v];
    const double lo = std::isfinite(mv.lower) ? std::ceil(mv.lower) : -1e9;
    const double hi = std::isfinite(mv.upper) ? std::floor(mv.upper) : 1e9;
    if (lo > hi) return false;
    root_bounds_.emplace_back(lo, hi);
  }
  root_model_ = base_;
  for (std::size_t k = 0; k < int_vars_.size(); ++k) {
    // Clamping in the model (not just the solver) gives every integral
    // variable a finite lower bound, which is what makes its simplex
    // column warm-boundable (single shifted column).
    root_model_.set_bounds(VarId{int_vars_[k]}, root_bounds_[k].first,
                           root_bounds_[k].second);
  }
  main_ = std::make_unique<SimplexSolver>(root_model_, opt_.lp);
  main_bounds_ = root_bounds_;
  return true;
}

MilpResult BranchAndBound::run(const MilpOptions& options) {
  opt_ = options;
  MilpResult result;

  // Pure LP: no branching needed.
  if (int_vars_.empty()) {
    const LpSolution sol = solve_lp(base_, opt_.lp);
    result.lp_iterations = sol.iterations;
    result.status = sol.status;
    if (sol.status == SolveStatus::kOptimal) {
      result.has_incumbent = true;
      result.objective = sol.objective;
      result.best_bound = sol.objective;
      result.values = sol.values;
    }
    return result;
  }

  // Detect unboundedness on the true relaxation before branching: the
  // branching ranges clamp infinite integer domains, which would silently
  // turn an unbounded problem into a huge "optimal" one.  A fully
  // box-bounded model cannot have an unbounded relaxation, so the analysis
  // MILPs (all bounds finite) skip this extra cold LP entirely.
  bool all_finite = true;
  for (const Variable& v : base_.variables()) {
    if (!std::isfinite(v.lower) || !std::isfinite(v.upper)) {
      all_finite = false;
      break;
    }
  }
  if (!all_finite) {
    const LpSolution root = solve_lp(base_, opt_.lp);
    result.lp_iterations += root.iterations;
    if (root.status == SolveStatus::kUnbounded) {
      result.status = SolveStatus::kUnbounded;
      return result;
    }
    if (root.status == SolveStatus::kInfeasible) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
  }

  if (!setup_root()) {
    result.status = SolveStatus::kInfeasible;
    return result;
  }

  try_seed_incumbent(result);

  std::priority_queue<OpenNode, std::vector<OpenNode>, NodeOrder> open(
      NodeOrder{maximize_});
  std::size_t next_id = 0;
  arena_.push_back(NodeDelta{});  // root: no delta
  open.push(OpenNode{maximize_ ? kInfinity : -kInfinity, next_id++, 0, 0});

  result.best_bound = worst_value();
  bool budget_exhausted = false;
  IntBounds node_bounds;
  // Plunge child of the node just expanded: processed before anything from
  // the queue, while the solver tableau still holds its parent's optimal
  // basis (its relaxation is then a textbook dual restart — one bound
  // tightened, a handful of pivots).
  std::optional<OpenNode> carry;
  // Trail of the most recent unexplored siblings along the plunge (LIFO,
  // capped at kTrailMax).  Backtracking to one of them keeps the tableau
  // close; the oldest entries overflow into the best-first queue.
  std::deque<OpenNode> trail;
  // Best bound among nodes discarded because they were already within the
  // configured relative gap of the incumbent (their subtree can improve the
  // answer by at most the tolerance).  Folded into the final dual bound so
  // best_bound stays valid.
  double dropped_bound = worst_value();
  bool dropped_any = false;

  while (carry.has_value() || !trail.empty() || !open.empty()) {
    if (result.nodes >= opt_.max_nodes) {
      budget_exhausted = true;
      break;
    }
    const bool plunged = carry.has_value();
    OpenNode node;
    if (plunged) {
      node = *carry;
      carry.reset();
    } else if (!trail.empty()) {
      node = trail.back();
      trail.pop_back();
    } else {
      node = open.top();
      open.pop();
    }

    // Global dual bound: with plunging the processed node no longer
    // dominates the open set, so take the best over it, the queue head, and
    // the trail (a short scan).
    double global_bound = node.bound;
    if (!open.empty() && better(open.top().bound, global_bound)) {
      global_bound = open.top().bound;
    }
    for (const OpenNode& t : trail) {
      if (better(t.bound, global_bound)) global_bound = t.bound;
    }

    // Terminate when the global dual bound is within the configured
    // relative gap of the incumbent — best_bound stays a valid dual bound.
    if (result.has_incumbent && opt_.relative_gap > 0.0) {
      const double tolerance =
          opt_.relative_gap * std::max(1.0, std::abs(result.objective));
      const bool within = maximize_
                              ? global_bound <= result.objective + tolerance
                              : global_bound >= result.objective - tolerance;
      if (within) {
        result.status = SolveStatus::kOptimal;
        result.gap_terminated = true;
        result.best_bound = dropped_any && better(dropped_bound, global_bound)
                                ? dropped_bound
                                : global_bound;
        return result;
      }
      // A plunged node already within the gap cannot change the final
      // answer beyond the tolerance: drop it instead of exploring its
      // subtree (best-first would never have reached it).  Its bound is
      // remembered so the dual bound stays honest.
      const bool node_within = maximize_
                                   ? node.bound <= result.objective + tolerance
                                   : node.bound >= result.objective - tolerance;
      if (node_within) {
        if (better(node.bound, dropped_bound)) dropped_bound = node.bound;
        dropped_any = true;
        ++result.nodes_pruned;
        continue;
      }
    }

    // A node whose inherited bound cannot beat the incumbent is dead.
    if (result.has_incumbent &&
        !better(node.bound, result.objective + (maximize_
                                                    ? kAbsoluteGap
                                                    : -kAbsoluteGap))) {
      ++result.nodes_pruned;
      continue;
    }

    ++result.nodes;
    bounds_for(node.delta, node_bounds);
    const std::size_t changed = apply_bounds(*main_, main_bounds_, node_bounds);
    // Plunged children (one delta from the tableau) and near jumps — e.g.
    // the sibling popped right after its brother's subtree collapsed —
    // reoptimize in situ; far jumps solve cold.
    const bool near = plunged || changed <= kWarmDeltaMax;
    const LpSolution relax =
        lp_solve(*main_, opt_.use_warm_start && near, result);

    if (relax.status == SolveStatus::kInfeasible) {
      continue;
    }
    if (relax.status == SolveStatus::kUnbounded) {
      // Relaxation unbounded at the root means the MILP is unbounded or
      // infeasible; report unbounded (callers treat it as "no finite bound").
      result.status = SolveStatus::kUnbounded;
      return result;
    }
    if (relax.status == SolveStatus::kIterationLimit) {
      result.status = SolveStatus::kIterationLimit;
      return result;
    }

    const double bound = relax.objective;
    if (result.has_incumbent &&
        !better(bound, result.objective + (maximize_ ? kAbsoluteGap
                                                     : -kAbsoluteGap))) {
      ++result.nodes_pruned;
      continue;  // cannot beat incumbent
    }

    const std::size_t branch_k = pick_branch_var(relax.values);
    if (branch_k == npos) {
      // Integral relaxation: snap and accept as incumbent.
      std::vector<double> snapped = relax.values;
      for (const std::size_t v : int_vars_) {
        snapped[v] = std::round(snapped[v]);
      }
      try_update_incumbent(snapped, bound, result);
      continue;
    }

    if (opt_.enable_rounding_heuristic) {
      if (result.nodes == 1) {
        // Node 1 is the root, and heur_ is not built yet.  main_ has just
        // solved the root from scratch, which is exactly what a fresh
        // heur_ would do first, so the dive starts from a copy of main_
        // and from main_'s root solution instead of solving it again.
        heur_ = main_->clone();
        heur_bounds_ = main_bounds_;
        dive_from(relax, result);
      } else if (result.nodes % kHeuristicPeriod == 0) {
        rounding_heuristic(node_bounds, relax.values, result);
        if (!result.has_incumbent &&
            result.nodes % (kHeuristicPeriod * 8) == 0) {
          dive_heuristic(node_bounds, result);
        }
      }
    }

    const std::size_t var = int_vars_[branch_k];
    const double x = relax.values[var];
    const auto [lo, hi] = node_bounds[branch_k];
    const double floor_x = std::floor(x);
    const double ceil_x = std::ceil(x);

    const std::size_t down =
        floor_x >= lo ? make_child(node.delta, branch_k, lo, floor_x) : npos;
    const std::size_t up =
        ceil_x <= hi ? make_child(node.delta, branch_k, ceil_x, hi) : npos;
    // Guided plunge: dive into the child on the side the relaxation value
    // rounds to (the one more likely to stay feasible and near-optimal).
    // The sibling joins the trail for a nearby backtrack, displacing the
    // oldest trail entry into the best-first queue when full.
    const bool go_down = up == npos || (down != npos && x - floor_x <= 0.5);
    const std::size_t dive = go_down ? down : up;
    const std::size_t sibling = go_down ? up : down;
    if (sibling != npos) {
      trail.push_back(OpenNode{bound, next_id++, node.depth + 1, sibling});
      if (trail.size() > kTrailMax) {
        open.push(trail.front());
        trail.pop_front();
      }
    }
    if (dive != npos) {
      carry = OpenNode{bound, next_id++, node.depth + 1, dive};
    }
  }

  // Polish: re-derive the incumbent's objective and continuous completion
  // with one clean cold solve at the fixed integral assignment.  Warm-path
  // extractions carry tableau round-off that depends on the exploration
  // path; the reported value must not (callers ceil() these bounds, which
  // amplifies even ulp-level noise into a full tick).  The cold solve is
  // not exact: its continuous values can still miss a row by a few 1e-6
  // where the row's terms are near 1e6, which repair_incumbent mends after
  // postsolve.
  if (result.has_incumbent) {
    IntBounds fixed(int_vars_.size());
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const double v = result.values[int_vars_[k]];
      fixed[k] = {v, v};
    }
    apply_bounds(heur(), heur_bounds_, fixed);
    LpSolution polish = heur_->solve();
    result.lp_iterations += polish.iterations;
    if (polish.status == SolveStatus::kOptimal) {
      result.objective = polish.objective;
      result.values = std::move(polish.values);
      for (const std::size_t v : int_vars_) {
        result.values[v] = std::round(result.values[v]);
      }
    }
  }

  // Final status & dual bound.
  if (budget_exhausted) {
    result.status = SolveStatus::kNodeLimit;
    // Best-first queue: the strongest open bound is the queue head (no
    // drain needed), except that an unconsumed plunge child and the trail
    // also count as open nodes.
    double open_bound = open.empty() ? worst_value() : open.top().bound;
    if (carry.has_value() && better(carry->bound, open_bound)) {
      open_bound = carry->bound;
    }
    for (const OpenNode& t : trail) {
      if (better(t.bound, open_bound)) open_bound = t.bound;
    }
    if (dropped_any && better(dropped_bound, open_bound)) {
      open_bound = dropped_bound;
    }
    result.best_bound = result.has_incumbent
                            ? (better(open_bound, result.objective)
                                   ? open_bound
                                   : result.objective)
                            : open_bound;
    if (!std::isfinite(result.best_bound)) {
      // Root never solved: no finite dual bound available.
      result.best_bound = maximize_ ? kInfinity : -kInfinity;
    }
    return result;
  }

  if (result.has_incumbent) {
    result.status = SolveStatus::kOptimal;
    result.best_bound = result.objective;
    if (dropped_any) {
      // Some within-gap subtrees were discarded unexplored: the answer is
      // gap-optimal, not proven exact, and the dual bound reflects them.
      result.gap_terminated = true;
      if (better(dropped_bound, result.best_bound)) {
        result.best_bound = dropped_bound;
      }
    }
  } else {
    result.status = SolveStatus::kInfeasible;
  }
  return result;
}

/// Incumbent clean-up in the model's own space.  Every incumbent leaves a
/// simplex solve whose round-off is bounded in the solver's (scaled)
/// space, not in the model's: a continuous column squeezed between terms
/// of magnitude 1e6 can land a few 1e-6 past the row it should sit on,
/// and the point then fails the check `try_seed_incumbent` applies to
/// start values.  With every integral column at an exact integer, a row
/// whose only continuous column is x_j bounds x_j by arithmetic on the
/// fixed terms alone; continuous values that stray past those bounds are
/// pulled back onto them.  The repaired point replaces `values` only if it
/// passes the check; otherwise `values` is left as it was.
void repair_incumbent(const Model& model, double eps,
                      std::vector<double>& values) {
  if (model.is_feasible(values, eps)) return;
  const std::vector<Variable>& vars = model.variables();
  std::vector<double> point = values;
  std::vector<double> lo(vars.size());
  std::vector<double> hi(vars.size());
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (vars[j].type != VarType::kContinuous) {
      point[j] = std::round(point[j]);
    }
    lo[j] = vars[j].lower;
    hi[j] = vars[j].upper;
  }
  for (const Constraint& c : model.constraints()) {
    std::size_t col = npos;
    double coef = 0.0;
    double fixed = 0.0;
    bool single = true;
    for (const auto& [j, a] : c.lhs.terms()) {
      if (vars[j].type != VarType::kContinuous) {
        fixed += a * point[j];
      } else if (col == npos) {
        col = j;
        coef = a;
      } else {
        single = false;
        break;
      }
    }
    if (!single || col == npos) continue;
    const double bound = (c.rhs - fixed) / coef;
    const bool caps_above = (c.relation == Relation::kLe) == (coef > 0.0);
    if (c.relation == Relation::kEq || caps_above) {
      hi[col] = std::min(hi[col], bound);
    }
    if (c.relation == Relation::kEq || !caps_above) {
      lo[col] = std::max(lo[col], bound);
    }
  }
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (vars[j].type == VarType::kContinuous && lo[j] <= hi[j]) {
      point[j] = std::clamp(point[j], lo[j], hi[j]);
    }
  }
  if (model.is_feasible(point, eps)) {
    values = std::move(point);
  }
}

/// Per-search counters the telemetry reports for one solve.
struct SearchCounters {
  std::size_t deltas = 0;
  std::size_t warm = 0;
  std::size_t fallbacks = 0;
};

MilpResult branch_and_bound(const Model& model, const MilpOptions& options,
                            SearchCounters& counters) {
  BranchAndBound bb(model);
  MilpResult result = bb.run(options);
  counters = {bb.bound_deltas_applied(), bb.warm_solves(),
              bb.warm_fallbacks()};
  return result;
}

MilpResult solve_with_presolve(const Model& base, const MilpOptions& options,
                               SearchCounters& counters) {
  presolve::Presolved pre;
  {
    const support::telemetry::ScopedTimer timer("lp.presolve.run");
    pre = presolve::presolve(base);
  }
  MilpResult result;
  if (pre.infeasible) {
    result.status = SolveStatus::kInfeasible;
    return result;
  }
  if (pre.map.reduced_cols() == 0) {
    // Everything fixed: presolve solved the model outright.
    result.values = pre.map.postsolve_primal({});
    if (!base.is_feasible(result.values, options.lp.feasibility_tol * 10.0)) {
      result.status = SolveStatus::kInfeasible;
      result.values.clear();
      return result;
    }
    result.status = SolveStatus::kOptimal;
    result.has_incumbent = true;
    result.objective = base.evaluate(base.objective(), result.values);
    result.best_bound = result.objective;
    return result;
  }

  MilpOptions ropt = options;
  if (!options.branch_priority.empty()) {
    ropt.branch_priority = pre.map.restrict_priorities(options.branch_priority);
  }
  ropt.start_values.clear();
  if (options.start_values.size() == pre.map.original_cols) {
    std::vector<double> restricted;
    if (pre.map.restrict_primal(options.start_values, kIntegralityTol,
                                &restricted)) {
      ropt.start_values = std::move(restricted);
    }
  }

  result = branch_and_bound(pre.reduced, ropt, counters);
  if (result.has_incumbent) {
    result.values = pre.map.postsolve_primal(result.values);
  }
  return result;
}

}  // namespace

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
  namespace telemetry = support::telemetry;
  const telemetry::ScopedTimer timer("milp.solve");
  SearchCounters counters;
  MilpResult result = options.use_presolve
                          ? solve_with_presolve(model, options, counters)
                          : branch_and_bound(model, options, counters);
  if (result.has_incumbent) {
    repair_incumbent(model, options.lp.feasibility_tol * 10.0, result.values);
  }
  if (telemetry::enabled()) {
    telemetry::count("milp.solves");
    telemetry::count("milp.nodes_explored", result.nodes);
    telemetry::count("milp.nodes_pruned", result.nodes_pruned);
    telemetry::count("milp.lp_iterations", result.lp_iterations);
    telemetry::count("milp.bound_deltas_applied", counters.deltas);
    telemetry::count("milp.warm_start_hits",
                     counters.warm - counters.fallbacks);
    telemetry::count("milp.warm_start_fallbacks", counters.fallbacks);
    if (result.gap_terminated) {
      telemetry::count("milp.gap_terminations");
    }
    if (result.status == SolveStatus::kNodeLimit) {
      telemetry::count("milp.node_limit_hits");
    }
  }
  return result;
}

}  // namespace mcs::lp
