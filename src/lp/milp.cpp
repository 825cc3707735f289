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
  /// Search of `model` under `options`.  `model` is read only until the
  /// first run() has set up the root; the search then holds its own
  /// clamped copy.
  BranchAndBound(const Model& model, const MilpOptions& options)
      : base_(&model),
        opt_(options),
        maximize_(model.objective_sense() == Sense::kMaximize),
        open_(NodeOrder{maximize_}) {
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      if (model.variables()[i].type != VarType::kContinuous) {
        int_vars_.push_back(i);
      }
    }
  }

  /// Runs the search until it finishes (true; result() holds the answer) or
  /// `stop` fires at a loop top (false).  A paused search resumes exactly
  /// where it stopped: the pause returns before the next node is popped.
  bool run(const StopRule* stop);
  MilpResult& result() noexcept { return result_; }

  std::size_t bound_deltas_applied() const noexcept { return deltas_; }
  std::size_t warm_solves() const noexcept {
    return solver_stat(&SimplexStats::warm_solves);
  }
  std::size_t warm_fallbacks() const noexcept {
    return solver_stat(&SimplexStats::warm_fallbacks);
  }

 private:
  /// How a stretch of the node loop ended.
  enum class Explore {
    kPaused,    ///< the stop rule fired
    kReturned,  ///< result_ is final (gap, unbounded or iteration limit)
    kDrained,   ///< no open node left, or the node budget ran out
  };

  /// Everything before the node loop: the pure-LP and unboundedness
  /// checks, the root set-up, the seeded incumbent and the root node.
  /// Returns true when that already settled the result.
  bool start();
  Explore explore(const StopRule* stop);
  /// Polishes the incumbent and sets the final status and dual bound.
  void conclude();

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

  /// Best bound over every open node (the plunge child, the trail, the
  /// queue head) and the within-gap drops.
  double open_bound() const {
    double bound = open_.empty() ? worst_value() : open_.top().bound;
    if (carry_.has_value() && better(carry_->bound, bound)) {
      bound = carry_->bound;
    }
    for (const OpenNode& t : trail_) {
      if (better(t.bound, bound)) bound = t.bound;
    }
    if (dropped_any_ && better(dropped_bound_, bound)) {
      bound = dropped_bound_;
    }
    return bound;
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
    if (opt_.start_values.size() != base_->num_variables()) return;
    std::vector<double> snapped = opt_.start_values;
    for (const std::size_t v : int_vars_) {
      const double r = std::round(snapped[v]);
      if (std::abs(snapped[v] - r) > kIntegralityTol) return;
      snapped[v] = r;
    }
    if (!base_->is_feasible(snapped, opt_.lp.feasibility_tol * 10.0)) return;
    result.has_incumbent = true;
    result.objective = base_->evaluate(base_->objective(), snapped);
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

  const Model* base_;  ///< the caller's model; null once start() is done
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

  // Search state, kept between run() calls.
  bool started_ = false;
  MilpResult result_;
  std::priority_queue<OpenNode, std::vector<OpenNode>, NodeOrder> open_;
  std::size_t next_id_ = 0;
  bool budget_exhausted_ = false;
  IntBounds node_bounds_;
  // Plunge child of the node just expanded: processed before anything from
  // the queue, while the solver tableau still holds its parent's optimal
  // basis (its relaxation is then a textbook dual restart — one bound
  // tightened, a handful of pivots).
  std::optional<OpenNode> carry_;
  // Trail of the most recent unexplored siblings along the plunge (LIFO,
  // capped at kTrailMax).  Backtracking to one of them keeps the tableau
  // close; the oldest entries overflow into the best-first queue.
  std::deque<OpenNode> trail_;
  // Best bound among nodes discarded because they were already within the
  // configured relative gap of the incumbent (their subtree can improve the
  // answer by at most the tolerance).  Folded into the final dual bound so
  // best_bound stays valid.
  double dropped_bound_ = 0.0;
  bool dropped_any_ = false;
};

bool BranchAndBound::setup_root() {
  // Integral variables need finite branching ranges; clamp huge domains
  // (safe for the objective once the relaxation is known to be bounded;
  // argmax components beyond 1e9 are out of scope).
  root_bounds_.reserve(int_vars_.size());
  for (const std::size_t v : int_vars_) {
    const Variable& mv = base_->variables()[v];
    const double lo = std::isfinite(mv.lower) ? std::ceil(mv.lower) : -1e9;
    const double hi = std::isfinite(mv.upper) ? std::floor(mv.upper) : 1e9;
    if (lo > hi) return false;
    root_bounds_.emplace_back(lo, hi);
  }
  root_model_ = *base_;
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

bool BranchAndBound::run(const StopRule* stop) {
  if (!started_) {
    started_ = true;
    const bool settled = start();
    base_ = nullptr;
    if (settled) return true;
  }
  switch (explore(stop)) {
    case Explore::kPaused:
      return false;
    case Explore::kReturned:
      return true;
    case Explore::kDrained:
      break;
  }
  conclude();
  return true;
}

bool BranchAndBound::start() {
  MilpResult& result = result_;

  // Pure LP: no branching needed.
  if (int_vars_.empty()) {
    const LpSolution sol = solve_lp(*base_, opt_.lp);
    result.lp_iterations = sol.iterations;
    result.status = sol.status;
    if (sol.status == SolveStatus::kOptimal) {
      result.has_incumbent = true;
      result.objective = sol.objective;
      result.best_bound = sol.objective;
      result.values = sol.values;
    }
    return true;
  }

  // Detect unboundedness on the true relaxation before branching: the
  // branching ranges clamp infinite integer domains, which would silently
  // turn an unbounded problem into a huge "optimal" one.  A fully
  // box-bounded model cannot have an unbounded relaxation, so the analysis
  // MILPs (all bounds finite) skip this extra cold LP entirely.
  bool all_finite = true;
  for (const Variable& v : base_->variables()) {
    if (!std::isfinite(v.lower) || !std::isfinite(v.upper)) {
      all_finite = false;
      break;
    }
  }
  if (!all_finite) {
    const LpSolution root = solve_lp(*base_, opt_.lp);
    result.lp_iterations += root.iterations;
    if (root.status == SolveStatus::kUnbounded) {
      result.status = SolveStatus::kUnbounded;
      return true;
    }
    if (root.status == SolveStatus::kInfeasible) {
      result.status = SolveStatus::kInfeasible;
      return true;
    }
  }

  if (!setup_root()) {
    result.status = SolveStatus::kInfeasible;
    return true;
  }

  try_seed_incumbent(result);

  arena_.push_back(NodeDelta{});  // root: no delta
  open_.push(OpenNode{maximize_ ? kInfinity : -kInfinity, next_id_++, 0, 0});

  result.best_bound = worst_value();
  dropped_bound_ = worst_value();
  return false;
}

BranchAndBound::Explore BranchAndBound::explore(const StopRule* stop) {
  MilpResult& result = result_;
  auto& open = open_;
  auto& carry = carry_;
  auto& trail = trail_;
  IntBounds& node_bounds = node_bounds_;

  while (carry.has_value() || !trail.empty() || !open.empty()) {
    if (result.nodes >= opt_.max_nodes) {
      budget_exhausted_ = true;
      break;
    }
    // The stop rule reads the state before the next pop, so a resumed
    // search pops exactly the node an uninterrupted one would.
    if (stop != nullptr &&
        (*stop)(SearchBounds{
            result.has_incumbent ? result.objective : worst_value(),
            open_bound()})) {
      return Explore::kPaused;
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
        double bound = dropped_any_ && better(dropped_bound_, global_bound)
                           ? dropped_bound_
                           : global_bound;
        // A dual bound cannot lie on the wrong side of a feasible point:
        // when every open node's inherited bound has fallen past the
        // incumbent, the incumbent itself is the tightest valid bound.  A
        // difference within round-off is left alone: the unpolished
        // objective carries that noise, and ceil() would turn it into a
        // whole tick.
        const double noise =
            kObjectiveRoundoff * std::max(1.0, std::abs(result.objective));
        if (better(result.objective, bound + (maximize_ ? noise : -noise))) {
          bound = result.objective;
        }
        result.best_bound = bound;
        return Explore::kReturned;
      }
      // A plunged node already within the gap cannot change the final
      // answer beyond the tolerance: drop it instead of exploring its
      // subtree (best-first would never have reached it).  Its bound is
      // remembered so the dual bound stays honest.
      const bool node_within = maximize_
                                   ? node.bound <= result.objective + tolerance
                                   : node.bound >= result.objective - tolerance;
      if (node_within) {
        if (better(node.bound, dropped_bound_)) dropped_bound_ = node.bound;
        dropped_any_ = true;
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
      return Explore::kReturned;
    }
    if (relax.status == SolveStatus::kIterationLimit) {
      result.status = SolveStatus::kIterationLimit;
      return Explore::kReturned;
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
      trail.push_back(OpenNode{bound, next_id_++, node.depth + 1, sibling});
      if (trail.size() > kTrailMax) {
        open.push(trail.front());
        trail.pop_front();
      }
    }
    if (dive != npos) {
      carry = OpenNode{bound, next_id_++, node.depth + 1, dive};
    }
  }
  return Explore::kDrained;
}

void BranchAndBound::conclude() {
  MilpResult& result = result_;
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
  if (budget_exhausted_) {
    result.status = SolveStatus::kNodeLimit;
    // Best-first queue: the strongest open bound is the queue head (no
    // drain needed), except that an unconsumed plunge child and the trail
    // also count as open nodes.
    const double bound = open_bound();
    result.best_bound = result.has_incumbent
                            ? (better(bound, result.objective)
                                   ? bound
                                   : result.objective)
                            : bound;
    if (!std::isfinite(result.best_bound)) {
      // Root never solved: no finite dual bound available.
      result.best_bound = maximize_ ? kInfinity : -kInfinity;
    }
    return;
  }

  if (result.has_incumbent) {
    result.status = SolveStatus::kOptimal;
    result.best_bound = result.objective;
    if (dropped_any_) {
      // Some within-gap subtrees were discarded unexplored: the answer is
      // gap-optimal, not proven exact, and the dual bound reflects them.
      result.gap_terminated = true;
      if (better(dropped_bound_, result.best_bound)) {
        result.best_bound = dropped_bound_;
      }
    }
  } else {
    result.status = SolveStatus::kInfeasible;
  }
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
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const RowView c = model.row(r);
    std::size_t col = npos;
    double coef = 0.0;
    double fixed = 0.0;
    bool single = true;
    for (const auto& [j, a] : c.terms) {
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

/// Cumulative work of one search, as reported to telemetry so far.
struct SearchWork {
  std::size_t nodes = 0;
  std::size_t pruned = 0;
  std::size_t lp_iterations = 0;
  std::size_t deltas = 0;
  std::size_t warm = 0;
  std::size_t fallbacks = 0;
};

}  // namespace

struct MilpSearch::Impl {
  Impl(const Model& m, const MilpOptions& o) : model(&m), options(o) {}

  /// The caller's model, or `owned` once the search has paused.
  const Model* model;
  std::optional<Model> owned;
  MilpOptions options;
  bool started = false;
  bool begun = false;  ///< begin() has run
  bool finished = false;
  presolve::Presolved pre;  ///< when options.use_presolve
  std::unique_ptr<BranchAndBound> bb;
  MilpResult result;
  SearchWork reported;

  /// Presolves (when enabled) and prepares the B&B.  Returns true when
  /// presolve settled the model outright (result is then final).
  bool begin();
  /// Reports the work done since the last report.
  void report(const SearchWork& now, bool first);
  /// Keeps what a paused search needs: its own copy of the model.
  void pause();
};

bool MilpSearch::Impl::begin() {
  if (!options.use_presolve) {
    bb = std::make_unique<BranchAndBound>(*model, options);
    return false;
  }
  {
    const support::telemetry::ScopedTimer timer("lp.presolve.run");
    pre = presolve::presolve(*model);
  }
  if (pre.infeasible) {
    result.status = SolveStatus::kInfeasible;
    return true;
  }
  if (pre.map.reduced_cols() == 0) {
    // Everything fixed: presolve solved the model outright.
    result.values = pre.map.postsolve_primal({});
    if (!model->is_feasible(result.values,
                            options.lp.feasibility_tol * 10.0)) {
      result.status = SolveStatus::kInfeasible;
      result.values.clear();
      return true;
    }
    result.status = SolveStatus::kOptimal;
    result.has_incumbent = true;
    result.objective = model->evaluate(model->objective(), result.values);
    result.best_bound = result.objective;
    return true;
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
  bb = std::make_unique<BranchAndBound>(pre.reduced, ropt);
  return false;
}

void MilpSearch::Impl::report(const SearchWork& now, bool first) {
  namespace telemetry = support::telemetry;
  if (!telemetry::enabled()) {
    reported = now;
    return;
  }
  if (first) telemetry::count("milp.solves");
  telemetry::count("milp.nodes_explored", now.nodes - reported.nodes);
  telemetry::count("milp.nodes_pruned", now.pruned - reported.pruned);
  telemetry::count("milp.lp_iterations",
                   now.lp_iterations - reported.lp_iterations);
  telemetry::count("milp.bound_deltas_applied", now.deltas - reported.deltas);
  telemetry::count("milp.warm_start_hits",
                   (now.warm - now.fallbacks) -
                       (reported.warm - reported.fallbacks));
  telemetry::count("milp.warm_start_fallbacks",
                   now.fallbacks - reported.fallbacks);
  reported = now;
}

void MilpSearch::Impl::pause() {
  if (!owned) {
    owned = *model;
    model = &*owned;
  }
  support::telemetry::count("milp.pauses");
}

MilpSearch::MilpSearch(const Model& model, const MilpOptions& options)
    : impl_(std::make_unique<Impl>(model, options)) {}

MilpSearch::~MilpSearch() = default;
MilpSearch::MilpSearch(MilpSearch&&) noexcept = default;
MilpSearch& MilpSearch::operator=(MilpSearch&&) noexcept = default;

bool MilpSearch::finished() const noexcept { return impl_->finished; }

const MilpResult& MilpSearch::result() const {
  MCS_REQUIRE(impl_->finished, "MilpSearch::result: search not finished");
  return impl_->result;
}

bool MilpSearch::run(const StopRule& stop) {
  namespace telemetry = support::telemetry;
  Impl& s = *impl_;
  if (s.finished) return true;
  const telemetry::ScopedTimer timer("milp.solve");
  const bool first = !s.started;
  if (!first) telemetry::count("milp.resumes");
  s.started = true;
  bool settled = false;
  if (!s.begun) {
    // The loop top before presolve: no incumbent, no dual bound yet.  A
    // rule that fires here skips presolve, the root copy and the solver
    // build; resuming reads the rule again here, as at any loop top.
    if (stop) {
      const double inf = s.model->objective_sense() == Sense::kMaximize
                             ? kInfinity
                             : -kInfinity;
      if (stop(SearchBounds{-inf, inf})) {
        s.report({}, first);
        s.pause();
        return false;
      }
    }
    s.begun = true;
    settled = s.begin();
  }
  if (settled) {
    s.report({}, first);
  } else {
    BranchAndBound& bb = *s.bb;
    const bool done = bb.run(stop ? &stop : nullptr);
    const MilpResult& r = bb.result();
    s.report({r.nodes, r.nodes_pruned, r.lp_iterations,
              bb.bound_deltas_applied(), bb.warm_solves(),
              bb.warm_fallbacks()},
             first);
    if (!done) {
      s.pause();
      return false;
    }
    s.result = std::move(bb.result());
    if (s.options.use_presolve && s.result.has_incumbent) {
      s.result.values = s.pre.map.postsolve_primal(s.result.values);
    }
    s.bb.reset();
  }
  if (s.result.has_incumbent) {
    repair_incumbent(*s.model, s.options.lp.feasibility_tol * 10.0,
                     s.result.values);
  }
  if (telemetry::enabled()) {
    if (s.result.gap_terminated) {
      telemetry::count("milp.gap_terminations");
    }
    if (s.result.status == SolveStatus::kNodeLimit) {
      telemetry::count("milp.node_limit_hits");
    }
  }
  s.finished = true;
  return true;
}

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
  MilpSearch search(model, options);
  search.run();
  return std::move(search.impl_->result);
}

}  // namespace mcs::lp
