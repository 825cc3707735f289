#include "lp/milp.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <queue>

#include "lp/presolve.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::lp {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

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
    int_k_of_.assign(model.num_variables(), npos);
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      const Variable& v = model.variables()[i];
      if (v.type != VarType::kContinuous) {
        int_k_of_[i] = int_vars_.size();
        int_vars_.push_back(i);
      }
    }
  }

  /// One branch & bound search under `options`.  Reusable: a later call
  /// resyncs patched model bounds / right-hand sides into the retained
  /// solvers and searches again, bit-identically to a fresh instance.
  MilpResult run(const MilpOptions& options);

  std::size_t bound_deltas_applied() const noexcept { return deltas_; }
  std::size_t node_fixings() const noexcept { return node_fixings_; }
  std::size_t node_prunes() const noexcept { return node_prunes_; }
  std::size_t warm_solves() const noexcept {
    return solver_stat(&SimplexStats::warm_solves);
  }
  std::size_t warm_fallbacks() const noexcept {
    return solver_stat(&SimplexStats::warm_fallbacks);
  }

 private:
  /// (Re)establishes the session: clamped root bounds from the current
  /// model state, root model copy, and the two retained simplex solvers,
  /// all synced to the model's present bounds and right-hand sides.
  /// Returns false when a clamped integral domain is empty (infeasible).
  bool sync_session();
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
    double best_dist = opt_.integrality_tol;
    int best_prio = std::numeric_limits<int>::min();
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const double x = values[int_vars_[k]];
      const double dist = std::abs(x - std::round(x));
      if (dist <= opt_.integrality_tol) continue;
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
      if (std::abs(snapped[v] - r) > opt_.integrality_tol) return;
      snapped[v] = r;
    }
    if (!base_.is_feasible(snapped, opt_.lp.feasibility_tol * 10.0)) return;
    result.has_incumbent = true;
    result.objective = base_.evaluate(base_.objective(), snapped);
    result.values = std::move(snapped);
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
    const std::size_t changed = apply_bounds(*heur_, heur_bounds_, fixed);
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
    const std::size_t changed = apply_bounds(*heur_, heur_bounds_, node_bounds);
    LpSolution sol = lp_solve(
        *heur_, opt_.use_warm_start && changed <= kWarmDeltaMax, result);
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

  /// A packing/cardinality row: unit coefficients over 0/1 integral
  /// columns, <= or == a (patchable) right-hand side.  The delay MILPs are
  /// dominated by these (one-exec cardinality rows, interference budgets),
  /// and under branching they propagate: once the lower bounds of a row
  /// reach its rhs, every remaining column is forced to its lower bound.
  struct PackRow {
    std::vector<std::size_t> ks;  ///< members, as indices into int_vars_
    std::size_t row = 0;          ///< constraint index (rhs read live)
    bool eq = false;
  };

  /// Detects packing rows once per session (structure is immutable).
  void collect_pack_rows();

  /// Creates a child node delta `(branch_k -> [lo, hi])` under
  /// `parent_delta`, propagating packing-row implications to a fixpoint
  /// when presolve is enabled.  Extra fixings become chained deltas; the
  /// returned index is the chain tail.  Returns npos when propagation
  /// proves the child infeasible (no LP solve needed).
  std::size_t make_child(std::size_t parent_delta,
                         const IntBounds& parent_bounds, std::size_t branch_k,
                         double lo, double hi);

  const Model& base_;
  MilpOptions opt_;
  bool maximize_;
  std::vector<std::size_t> int_vars_;
  std::vector<std::size_t> int_k_of_;  ///< var index -> index in int_vars_

  std::vector<PackRow> pack_rows_;
  std::vector<std::vector<std::size_t>> var_packs_;  ///< int k -> pack rows
  bool pack_rows_collected_ = false;
  IntBounds prop_bounds_;  ///< scratch: candidate child bounds
  std::vector<std::pair<std::size_t, double>> prop_fixed_;
  std::vector<std::size_t> prop_queue_;
  std::vector<char> prop_in_queue_;
  std::size_t node_fixings_ = 0;
  std::size_t node_prunes_ = 0;

  IntBounds root_bounds_;
  Model root_model_;  ///< base_ with integral domains clamped finite
  std::unique_ptr<SimplexSolver> main_;  ///< node relaxations
  std::unique_ptr<SimplexSolver> heur_;  ///< rounding / diving scratch
  IntBounds main_bounds_;  ///< bounds currently applied to main_
  IntBounds heur_bounds_;  ///< bounds currently applied to heur_

  std::deque<NodeDelta> arena_;
  std::vector<std::size_t> chain_;  ///< scratch for bounds_for
  std::size_t deltas_ = 0;
};

bool BranchAndBound::sync_session() {
  // Clamped integral domains from the model's *current* bounds.  Integral
  // variables need finite branching ranges; clamp huge domains (safe for
  // the objective once the relaxation is known to be bounded; argmax
  // components beyond 1e9 are out of scope).
  IntBounds fresh;
  fresh.reserve(int_vars_.size());
  for (const std::size_t v : int_vars_) {
    const Variable& mv = base_.variables()[v];
    const double lo = std::isfinite(mv.lower) ? std::ceil(mv.lower) : -1e9;
    const double hi = std::isfinite(mv.upper) ? std::floor(mv.upper) : 1e9;
    if (lo > hi) return false;
    fresh.emplace_back(lo, hi);
  }

  if (main_ == nullptr) {
    root_bounds_ = std::move(fresh);
    root_model_ = base_;
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      // Clamping in the model (not just the solver) gives every integral
      // variable a finite lower bound, which is what makes its simplex
      // column warm-boundable (single shifted column).
      root_model_.set_bounds(VarId{int_vars_[k]}, root_bounds_[k].first,
                             root_bounds_[k].second);
    }
    main_ = std::make_unique<SimplexSolver>(root_model_, opt_.lp);
    heur_ = std::make_unique<SimplexSolver>(root_model_, opt_.lp);
    main_bounds_ = root_bounds_;
    heur_bounds_ = root_bounds_;
    arena_.clear();
    collect_pack_rows();
    return true;
  }

  // Session reuse: push exactly the data patched since the last search
  // into the retained root model and solvers.  Continuous bounds first
  // (integral ones go through the clamped vector below).
  for (std::size_t i = 0; i < base_.num_variables(); ++i) {
    const Variable& bv = base_.variables()[i];
    const Variable& rv = root_model_.variables()[i];
    if (bv.type != VarType::kContinuous) continue;
    if (bv.lower != rv.lower || bv.upper != rv.upper) {
      root_model_.set_bounds(VarId{i}, bv.lower, bv.upper);
      main_->set_bounds(VarId{i}, bv.lower, bv.upper);
      heur_->set_bounds(VarId{i}, bv.lower, bv.upper);
    }
  }
  for (std::size_t k = 0; k < int_vars_.size(); ++k) {
    if (fresh[k] != root_bounds_[k]) {
      root_bounds_[k] = fresh[k];
      root_model_.set_bounds(VarId{int_vars_[k]}, fresh[k].first,
                             fresh[k].second);
    }
  }
  // The previous search left the solvers at arbitrary node bounds; bring
  // them back to the (possibly patched) root.
  apply_bounds(*main_, main_bounds_, root_bounds_);
  apply_bounds(*heur_, heur_bounds_, root_bounds_);

  // Right-hand sides patched via Model::set_rhs since the last search.
  const auto& patched = base_.constraints();
  const auto& baked = root_model_.constraints();
  for (std::size_t r = 0; r < patched.size(); ++r) {
    if (patched[r].rhs != baked[r].rhs) {
      root_model_.set_rhs(r, patched[r].rhs);
      main_->set_rhs(r, patched[r].rhs);
      heur_->set_rhs(r, patched[r].rhs);
    }
  }

  // Bit-identity with a fresh instance: fresh solvers start without a
  // valid tableau, so the retained ones must forget theirs too.
  main_->invalidate();
  heur_->invalidate();
  arena_.clear();
  return true;
}

void BranchAndBound::collect_pack_rows() {
  if (pack_rows_collected_) return;
  pack_rows_collected_ = true;
  var_packs_.assign(int_vars_.size(), {});
  const auto& constraints = root_model_.constraints();
  for (std::size_t r = 0; r < constraints.size(); ++r) {
    const Constraint& c = constraints[r];
    if (c.relation == Relation::kGe || c.lhs.terms().size() < 2) continue;
    PackRow pr;
    pr.row = r;
    pr.eq = c.relation == Relation::kEq;
    bool ok = true;
    for (const auto& [v, a] : c.lhs.terms()) {
      const std::size_t k = int_k_of_[v];
      if (a != 1.0 || k == npos || root_bounds_[k].first < 0.0 ||
          root_bounds_[k].second > 1.0) {
        ok = false;
        break;
      }
      pr.ks.push_back(k);
    }
    if (!ok) continue;
    const std::size_t idx = pack_rows_.size();
    for (const std::size_t k : pr.ks) {
      var_packs_[k].push_back(idx);
    }
    pack_rows_.push_back(std::move(pr));
  }
}

std::size_t BranchAndBound::make_child(std::size_t parent_delta,
                                       const IntBounds& parent_bounds,
                                       std::size_t branch_k, double lo,
                                       double hi) {
  std::size_t num_fixed = 0;
  if (opt_.use_presolve && !pack_rows_.empty()) {
    // Fixpoint over the packing rows touching changed columns.  Bounds and
    // right-hand sides are small integers, so the tolerance only needs to
    // absorb summation noise.
    constexpr double eps = 1e-6;
    prop_bounds_ = parent_bounds;
    prop_bounds_[branch_k] = {lo, hi};
    prop_fixed_.clear();
    prop_queue_.clear();
    prop_in_queue_.assign(pack_rows_.size(), 0);
    const auto enqueue = [&](std::size_t k) {
      for (const std::size_t pr : var_packs_[k]) {
        if (!prop_in_queue_[pr]) {
          prop_in_queue_[pr] = 1;
          prop_queue_.push_back(pr);
        }
      }
    };
    enqueue(branch_k);
    for (std::size_t head = 0; head < prop_queue_.size(); ++head) {
      const PackRow& p = pack_rows_[prop_queue_[head]];
      prop_in_queue_[prop_queue_[head]] = 0;
      double sum_lo = 0.0;
      double sum_hi = 0.0;
      for (const std::size_t k : p.ks) {
        sum_lo += prop_bounds_[k].first;
        sum_hi += prop_bounds_[k].second;
      }
      const double rhs = root_model_.constraints()[p.row].rhs;
      if (sum_lo > rhs + eps || (p.eq && sum_hi < rhs - eps)) {
        ++node_prunes_;
        return npos;  // child infeasible: prune without an LP solve
      }
      if (sum_lo >= rhs - eps) {
        for (const std::size_t k : p.ks) {
          const auto [klo, khi] = prop_bounds_[k];
          if (klo < khi) {
            prop_bounds_[k] = {klo, klo};
            prop_fixed_.emplace_back(k, klo);
            enqueue(k);
          }
        }
      } else if (p.eq && sum_hi <= rhs + eps) {
        for (const std::size_t k : p.ks) {
          const auto [klo, khi] = prop_bounds_[k];
          if (klo < khi) {
            prop_bounds_[k] = {khi, khi};
            prop_fixed_.emplace_back(k, khi);
            enqueue(k);
          }
        }
      }
    }
    num_fixed = prop_fixed_.size();
    node_fixings_ += num_fixed;
  }
  arena_.push_back(NodeDelta{parent_delta, branch_k, lo, hi});
  std::size_t tail = arena_.size() - 1;
  for (std::size_t i = 0; i < num_fixed; ++i) {
    const auto [k, v] = prop_fixed_[i];
    arena_.push_back(NodeDelta{tail, k, v, v});
    tail = arena_.size() - 1;
  }
  return tail;
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

  if (!sync_session()) {
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
                                                    ? opt_.absolute_gap
                                                    : -opt_.absolute_gap))) {
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
        !better(bound, result.objective + (maximize_ ? opt_.absolute_gap
                                                     : -opt_.absolute_gap))) {
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
        dive_heuristic(node_bounds, result);
      } else if (result.nodes % opt_.heuristic_period == 0) {
        rounding_heuristic(node_bounds, relax.values, result);
        if (!result.has_incumbent &&
            result.nodes % (opt_.heuristic_period * 8) == 0) {
          dive_heuristic(node_bounds, result);
        }
      }
    }

    const std::size_t var = int_vars_[branch_k];
    const double x = relax.values[var];
    const auto [lo, hi] = node_bounds[branch_k];
    const double floor_x = std::floor(x);
    const double ceil_x = std::ceil(x);

    std::size_t down = npos;
    std::size_t up = npos;
    if (floor_x >= lo) {
      down = make_child(node.delta, node_bounds, branch_k, lo, floor_x);
      if (down == npos) ++result.nodes_pruned;
    }
    if (ceil_x <= hi) {
      up = make_child(node.delta, node_bounds, branch_k, ceil_x, hi);
      if (up == npos) ++result.nodes_pruned;
    }
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
  if (result.has_incumbent && heur_ != nullptr) {
    IntBounds fixed(int_vars_.size());
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const double v = result.values[int_vars_[k]];
      fixed[k] = {v, v};
    }
    apply_bounds(*heur_, heur_bounds_, fixed);
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

/// Structural equality of two presolve outputs: same surviving columns
/// (types, term vectors, objective — bounds and right-hand sides excluded,
/// those are patchable in place) and the same original->reduced maps.  When
/// true, a retained reduced-model session can absorb the new output as
/// bound/rhs patches instead of being rebuilt.
bool same_structure(const Model& a, const presolve::PostsolveMap& am,
                    const Model& b, const presolve::PostsolveMap& bm) {
  if (am.col_map != bm.col_map || am.row_map != bm.row_map) return false;
  if (a.num_variables() != b.num_variables() ||
      a.num_constraints() != b.num_constraints()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_variables(); ++i) {
    if (a.variables()[i].type != b.variables()[i].type) return false;
  }
  for (std::size_t r = 0; r < a.num_constraints(); ++r) {
    const Constraint& ca = a.constraints()[r];
    const Constraint& cb = b.constraints()[r];
    if (ca.relation != cb.relation || ca.lhs.terms() != cb.lhs.terms()) {
      return false;
    }
  }
  // The objective constant carries the fixed columns' contribution and is
  // baked into the session's root-model copy — any change forces a rebuild.
  return a.objective_sense() == b.objective_sense() &&
         a.objective().terms() == b.objective().terms() &&
         a.objective().constant() == b.objective().constant();
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

}  // namespace

struct MilpSolver::Impl {
  explicit Impl(const Model& model) : base(model) {}

  const Model& base;
  /// Search engine on the pristine model (options.use_presolve == false).
  std::unique_ptr<BranchAndBound> direct;
  /// Presolve session: the reduced model lives behind a stable address so
  /// the inner BranchAndBound can keep referencing it across solves.
  std::unique_ptr<Model> reduced;
  presolve::PostsolveMap map;
  std::unique_ptr<BranchAndBound> session;

  // Counter snapshots so each solve emits per-run telemetry deltas (the
  // underlying counters are cumulative over the session).
  std::size_t deltas_seen = 0;
  std::size_t warm_seen = 0;
  std::size_t fallbacks_seen = 0;
  std::size_t fixings_seen = 0;
  std::size_t prunes_seen = 0;

  /// Counters absorbed from presolve sessions torn down by a structural
  /// rebuild.  total() folds these in so the lifetime totals — and with
  /// them the per-solve deltas against the *_seen snapshots — stay
  /// monotone across session resets instead of wrapping around.
  struct Retired {
    std::size_t deltas = 0;
    std::size_t warm = 0;
    std::size_t fallbacks = 0;
    std::size_t fixings = 0;
    std::size_t prunes = 0;

    void absorb(const BranchAndBound& bb) {
      deltas += bb.bound_deltas_applied();
      warm += bb.warm_solves();
      fallbacks += bb.warm_fallbacks();
      fixings += bb.node_fixings();
      prunes += bb.node_prunes();
    }
  };
  Retired retired;

  std::size_t total(std::size_t (BranchAndBound::*get)() const,
                    std::size_t retired_part) const {
    std::size_t sum = retired_part;
    if (direct) sum += ((*direct).*get)();
    if (session) sum += ((*session).*get)();
    return sum;
  }

  MilpResult solve_with_presolve(const MilpOptions& options);
};

MilpResult MilpSolver::Impl::solve_with_presolve(const MilpOptions& options) {
  namespace telemetry = support::telemetry;
  presolve::Presolved pre;
  {
    const telemetry::ScopedTimer timer("lp.presolve.run");
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

  if (session != nullptr &&
      same_structure(*reduced, map, pre.reduced, pre.map)) {
    // Same reduction shape: patch the retained reduced model in place; the
    // inner session resyncs exactly the changed bounds / right-hand sides.
    for (std::size_t i = 0; i < reduced->num_variables(); ++i) {
      const Variable& fresh = pre.reduced.variables()[i];
      const Variable& held = reduced->variables()[i];
      if (fresh.lower != held.lower || fresh.upper != held.upper) {
        reduced->set_bounds(VarId{i}, fresh.lower, fresh.upper);
      }
    }
    for (std::size_t r = 0; r < reduced->num_constraints(); ++r) {
      if (pre.reduced.constraints()[r].rhs != reduced->constraints()[r].rhs) {
        reduced->set_rhs(r, pre.reduced.constraints()[r].rhs);
      }
    }
    map = std::move(pre.map);
    telemetry::count("lp.presolve.session_reuses");
  } else {
    if (session) retired.absorb(*session);
    session.reset();
    reduced = std::make_unique<Model>(std::move(pre.reduced));
    map = std::move(pre.map);
    session = std::make_unique<BranchAndBound>(*reduced);
    telemetry::count("lp.presolve.session_rebuilds");
  }

  MilpOptions ropt = options;
  if (!options.branch_priority.empty()) {
    ropt.branch_priority = map.restrict_priorities(options.branch_priority);
  }
  ropt.start_values.clear();
  if (options.start_values.size() == map.original_cols) {
    std::vector<double> restricted;
    if (map.restrict_primal(options.start_values, options.integrality_tol,
                            &restricted)) {
      ropt.start_values = std::move(restricted);
    }
  }

  result = session->run(ropt);
  if (result.has_incumbent) {
    result.values = map.postsolve_primal(result.values);
  }
  return result;
}

MilpSolver::MilpSolver(const Model& model)
    : impl_(std::make_unique<Impl>(model)) {}

MilpSolver::~MilpSolver() = default;

MilpResult MilpSolver::solve(const MilpOptions& options) {
  namespace telemetry = support::telemetry;
  const telemetry::ScopedTimer timer("milp.solve");
  Impl& im = *impl_;
  MilpResult result;
  if (options.use_presolve) {
    result = im.solve_with_presolve(options);
  } else {
    if (im.direct == nullptr) {
      im.direct = std::make_unique<BranchAndBound>(im.base);
    }
    result = im.direct->run(options);
  }
  if (result.has_incumbent) {
    repair_incumbent(im.base, options.lp.feasibility_tol * 10.0,
                     result.values);
  }
  const std::size_t deltas = im.total(&BranchAndBound::bound_deltas_applied,
                                      im.retired.deltas);
  const std::size_t warm =
      im.total(&BranchAndBound::warm_solves, im.retired.warm);
  const std::size_t fallbacks =
      im.total(&BranchAndBound::warm_fallbacks, im.retired.fallbacks);
  const std::size_t fixings =
      im.total(&BranchAndBound::node_fixings, im.retired.fixings);
  const std::size_t prunes =
      im.total(&BranchAndBound::node_prunes, im.retired.prunes);
  if (telemetry::enabled()) {
    telemetry::count("milp.solves");
    telemetry::count("milp.nodes_explored", result.nodes);
    telemetry::count("milp.nodes_pruned", result.nodes_pruned);
    telemetry::count("milp.lp_iterations", result.lp_iterations);
    telemetry::count("milp.bound_deltas_applied", deltas - im.deltas_seen);
    telemetry::count("milp.warm_start_hits",
                     (warm - im.warm_seen) - (fallbacks - im.fallbacks_seen));
    telemetry::count("milp.warm_start_fallbacks",
                     fallbacks - im.fallbacks_seen);
    telemetry::count("lp.presolve.node_fixings", fixings - im.fixings_seen);
    telemetry::count("lp.presolve.node_prunes", prunes - im.prunes_seen);
    if (result.gap_terminated) {
      telemetry::count("milp.gap_terminations");
    }
    if (result.status == SolveStatus::kNodeLimit) {
      telemetry::count("milp.node_limit_hits");
    }
  }
  im.deltas_seen = deltas;
  im.warm_seen = warm;
  im.fallbacks_seen = fallbacks;
  im.fixings_seen = fixings;
  im.prunes_seen = prunes;
  return result;
}

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
  MilpSolver session(model);
  return session.solve(options);
}

}  // namespace mcs::lp
