// The kernel-independent simplex skeleton (SimplexSolver::Impl): column
// space, bound shadowing, certificates, extraction and the phase drivers.
// See simplex_impl.hpp for what a kernel supplies.
#include "lp/simplex_impl.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/contracts.hpp"

namespace mcs::lp {

SimplexSolver::Impl::Impl(const Model& model, const SimplexOptions& options)
    : model_(model), opt_(options) {
  const auto& vars = model_.variables();
  var_cols_.assign(vars.size(), {});
  const auto add_column = [&](std::size_t v, double offset, double sign,
                              double upper) {
    col_map_.push_back({v, offset, sign});
    upper_.push_back(upper);
    var_cols_[v].push_back(col_map_.size() - 1);
  };
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const Variable& mv = vars[v];
    if (std::isfinite(mv.lower)) {
      add_column(v, mv.lower, 1.0,
                 std::isfinite(mv.upper) ? mv.upper - mv.lower : kInfinity);
    } else if (std::isfinite(mv.upper)) {
      add_column(v, mv.upper, -1.0, kInfinity);  // x = ub - y, y in [0, inf)
    } else {
      add_column(v, 0.0, 1.0, kInfinity);  // free: x = y1 - y2
      add_column(v, 0.0, -1.0, kInfinity);
    }
  }
  structural_ = col_map_.size();
  rows_ = model_.num_constraints();
  cols_ = structural_ + rows_;
  first_artificial_ = cols_;
  // One artificial per row: which rows need one depends on the sign of the
  // (bound-dependent) right-hand side, so a reusable solver must keep every
  // slot allocated; unused artificials stay frozen at zero, and reset_cold
  // opens the ones it makes basic.
  total_cols_ = cols_ + rows_;
  upper_.resize(total_cols_, 0.0);

  base_rhs_.assign(rows_, 0.0);
  slack_coef_.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const RowView c = model_.row(r);
    base_rhs_[r] = c.rhs;
    switch (c.relation) {
      case Relation::kLe:
        slack_coef_[r] = 1.0;
        break;
      case Relation::kGe:
        slack_coef_[r] = -1.0;
        break;
      case Relation::kEq:
        break;  // frozen slack
    }
    upper_[structural_ + r] = slack_coef_[r] == 0.0 ? 0.0 : kInfinity;
  }

  const double cost_scale =
      model_.objective_sense() == Sense::kMinimize ? 1.0 : -1.0;
  cost_.assign(total_cols_, 0.0);
  for (const auto& [var, coef] : model_.objective().terms()) {
    for (const std::size_t col : var_cols_[var]) {
      cost_[col] += cost_scale * coef * col_map_[col].sign;
    }
  }
  phase1_cost_.assign(total_cols_, 0.0);
  std::fill(phase1_cost_.begin() + static_cast<std::ptrdiff_t>(cols_),
            phase1_cost_.end(), 1.0);
}

std::unique_ptr<SimplexSolver::Impl> SimplexSolver::Impl::clone() const {
  std::unique_ptr<Impl> twin = copy();
  twin->stats_ = SimplexStats{};
  return twin;
}

void SimplexSolver::Impl::set_bounds(std::size_t var, double lower,
                                     double upper) {
  MCS_REQUIRE(var < var_cols_.size(), "set_bounds: unknown variable");
  MCS_REQUIRE(std::isfinite(lower) && lower <= upper,
              "set_bounds: lower must be finite and <= upper");
  MCS_REQUIRE(var_cols_[var].size() == 1 &&
                  col_map_[var_cols_[var].front()].sign > 0.0,
              "set_bounds: variable must have a finite lower bound in the "
              "model (single shifted column)");
  const std::size_t c = var_cols_[var].front();
  ColumnMap& cm = col_map_[c];
  const double d_off = lower - cm.offset;
  cm.offset = lower;
  upper_[c] = std::isfinite(upper) ? upper - lower : kInfinity;
  if (!status_.empty() && status_[c] == VarStatus::kAtUpper &&
      !std::isfinite(upper_[c])) {
    status_[c] = VarStatus::kAtLower;
  }
  if (d_off != 0.0) {
    shift_offset(c, d_off);
  }
}

double SimplexSolver::Impl::current_internal_objective() const {
  const std::vector<double>& c = active_cost();
  double obj = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    obj += c[basis_[r]] * xb_[r];
  }
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == VarStatus::kAtUpper) {
      obj += c[j] * upper_[j];
    }
  }
  return obj;
}

/// Independent feasibility audit of an extracted solution against the
/// *original* model rows and the solver's current bound view.  Both
/// kernels accumulate floating-point error (tableau pivots, eta files);
/// when that error grows past noise the claimed vertex stops satisfying
/// the real constraints, and this check is what catches it — the caller
/// falls back to an authoritative solve on failure.  Cost is one pass over
/// the constraint matrix (about one pivot's worth).
bool SimplexSolver::Impl::certify(const std::vector<double>& values) const {
  // Tolerances are relative to the magnitude of what is being checked:
  // tick-valued models carry ~1e7 entries, where even a clean primal path
  // leaves noise far above any absolute epsilon.
  const double ftol = certify_tol();
  for (std::size_t c = 0; c < structural_; ++c) {
    const ColumnMap& cm = col_map_[c];
    if (cm.sign < 0.0 || var_cols_[cm.model_var].size() != 1) {
      continue;  // split / upper-shifted columns have static bounds
    }
    const double v = values[cm.model_var];
    const double tol = ftol * (1.0 + std::abs(v));
    if (v < cm.offset - tol) return false;
    if (std::isfinite(upper_[c]) && v > cm.offset + upper_[c] + tol) {
      return false;
    }
  }
  for (std::size_t r = 0; r < model_.num_constraints(); ++r) {
    const RowView con = model_.row(r);
    const double lhs = model_.row_activity(r, values);
    const double tol = ftol * (1.0 + std::abs(con.rhs) + std::abs(lhs));
    switch (con.relation) {
      case Relation::kLe:
        if (lhs > con.rhs + tol) return false;
        break;
      case Relation::kGe:
        if (lhs < con.rhs - tol) return false;
        break;
      case Relation::kEq:
        if (std::abs(lhs - con.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

LpSolution SimplexSolver::Impl::extract_solution(
    SolveStatus status, std::size_t iterations) const {
  LpSolution sol;
  sol.status = status;
  sol.iterations = iterations;
  if (status != SolveStatus::kOptimal) {
    return sol;
  }
  std::vector<double> internal(total_cols_, 0.0);
  for (std::size_t c = 0; c < total_cols_; ++c) {
    if (status_[c] == VarStatus::kAtUpper) {
      internal[c] = upper_[c];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    internal[basis_[r]] = xb_[r];
  }
  sol.values.assign(model_.num_variables(), 0.0);
  for (std::size_t c = 0; c < col_map_.size(); ++c) {
    const ColumnMap& cm = col_map_[c];
    if (cm.sign > 0.0) {
      sol.values[cm.model_var] += cm.offset + internal[c];
    } else {
      // Either ub-shifted single column (offset=ub) or negative split half.
      sol.values[cm.model_var] += cm.offset - internal[c];
    }
  }
  sol.objective = model_.evaluate(model_.objective(), sol.values);
  return sol;
}

void SimplexSolver::Impl::freeze_artificials() {
  // Freeze every artificial at zero so later phases (and warm restarts)
  // cannot move one; a basic artificial stays basic with bounds [0, 0], so
  // the dual phase treats any nonzero value as a violation to repair.
  for (std::size_t c = first_artificial_; c < total_cols_; ++c) {
    if (status_[c] != VarStatus::kBasic) {
      status_[c] = VarStatus::kAtLower;
    }
    upper_[c] = 0.0;
  }
}

bool SimplexSolver::Impl::same_basis(const Basis& b) const {
  if (b.basic.size() != rows_ || b.status.size() != total_cols_) {
    return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] != b.basic[r]) return false;
  }
  return true;
}

/// Adopts the snapshot's nonbasic statuses (basic columns keep kBasic).
/// Statuses are free to reassign without pivoting — they only select which
/// bound a nonbasic column sits at.
void SimplexSolver::Impl::adopt_statuses(const Basis& b) {
  for (std::size_t c = 0; c < total_cols_; ++c) {
    if (status_[c] == VarStatus::kBasic) continue;
    VarStatus s = static_cast<VarStatus>(b.status[c]);
    if (s == VarStatus::kBasic) s = VarStatus::kAtLower;
    if (s == VarStatus::kAtUpper && !std::isfinite(upper_[c])) {
      s = VarStatus::kAtLower;
    }
    status_[c] = s;
  }
}

Basis SimplexSolver::Impl::snapshot() const {
  Basis b;
  if (!valid()) return b;
  b.status.resize(total_cols_);
  for (std::size_t c = 0; c < total_cols_; ++c) {
    b.status[c] = static_cast<std::uint8_t>(status_[c]);
  }
  b.basic.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    b.basic[r] = static_cast<std::uint32_t>(basis_[r]);
  }
  return b;
}

LpSolution SimplexSolver::Impl::cold_phases() {
  reset_cold();
  rhs_scale_ = 1.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    rhs_scale_ = std::max(rhs_scale_, 1.0 + std::abs(xb_[r]));
  }
  std::size_t iterations = 0;

  // Phase 1 (only when artificials exist and can be nonzero).
  bool need_phase1 = false;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] >= first_artificial_ && xb_[r] > opt_.feasibility_tol) {
      need_phase1 = true;
      break;
    }
  }
  if (need_phase1) {
    use_cost(/*phase_one=*/true);
    if (primal_phase(/*phase_one=*/true, iterations) ==
        SolveStatus::kIterationLimit) {
      return extract_solution(SolveStatus::kIterationLimit, iterations);
    }
    // Relative infeasibility test: the phase-1 objective (total artificial
    // residual) scales with the problem's rhs magnitudes, so an absolute
    // threshold misclassifies well-posed but large-rhs models as
    // infeasible.  Scale-relative, consistent with the ratio-test
    // tolerances of the dual phase — but capped: uncapped, tick magnitudes
    // around 1e8-1e9 would push the threshold past one tick, the smallest
    // true violation in the analysis models, and a genuinely infeasible
    // model would slip through as feasible.  The cap keeps the threshold
    // at least a decade below tick scale for the default feasibility_tol.
    const double gate = opt_.feasibility_tol * 10.0 *
                        std::min(rhs_scale_, kPhase1ScaleCap);
    if (current_internal_objective() > gate) {
      if (recheck_phase1(iterations) == SolveStatus::kIterationLimit) {
        return extract_solution(SolveStatus::kIterationLimit, iterations);
      }
      if (current_internal_objective() > gate) {
        freeze_artificials();
        return extract_solution(SolveStatus::kInfeasible, iterations);
      }
    }
  }
  if (!drive_out_artificials()) {
    return extract_solution(SolveStatus::kInfeasible, iterations);
  }
  freeze_artificials();

  use_cost(/*phase_one=*/false);
  const SolveStatus p2 = primal_phase(/*phase_one=*/false, iterations);
  return extract_solution(p2, iterations);
}

bool SimplexSolver::Impl::reoptimize(std::size_t& iterations,
                                     LpSolution& sol) {
  SolveStatus status = dual_phase(iterations);
  if (status == SolveStatus::kOptimal) {
    status = primal_phase(/*phase_one=*/false, iterations);
  }
  if (status != SolveStatus::kOptimal) {
    return false;
  }
  sol = extract_solution(status, iterations);
  return certify(sol.values) && certify_dual();
}

bool SimplexSolver::Impl::warm_attempt(const Basis* parent, LpSolution& sol) {
  sol.iterations = 0;
  if (parent != nullptr && !parent->empty()) {
    if (same_basis(*parent)) {
      adopt_statuses(*parent);
    } else if (load_basis(*parent)) {
      freeze_artificials();
    } else {
      return false;
    }
  }
  phase_one_ = false;
  if (!refresh_warm()) {
    return false;
  }
  // Cap this attempt's pivots: a warm restart that needs more than a few
  // times the row count is pathological (degenerate grinding), and the
  // cold fallback is cheaper than letting it run to max_iterations.
  const std::size_t saved_max = opt_.max_iterations;
  opt_.max_iterations = std::min(saved_max, warm_budget());
  std::size_t iterations = 0;
  // Only a *certified* optimum is returned from the warm path.  Everything
  // else — iteration limit, an infeasibility signal (which accumulated
  // error can fabricate), an unboundedness claim, or a solution that fails
  // either certificate — is re-solved cold; the cold result is
  // authoritative.
  const bool certified = reoptimize(iterations, sol);
  opt_.max_iterations = saved_max;
  sol.iterations = iterations;
  return certified;
}

}  // namespace mcs::lp
