// Dense full-tableau kernel plus the kernel-independent SimplexSolver
// facade (kernel selection, warm/cold orchestration, stats, telemetry).
// The sparse revised-simplex kernel lives in simplex_sparse.cpp; both
// implement SimplexSolver::Impl (simplex_impl.hpp).
#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "lp/simplex_impl.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::lp {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kNodeLimit:
      return "node-limit";
  }
  return "unknown";
}

ColumnLayout build_column_layout(const Model& model) {
  ColumnLayout layout;
  const auto& vars = model.variables();
  layout.var_cols.assign(vars.size(), {});
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const Variable& mv = vars[v];
    if (std::isfinite(mv.lower)) {
      layout.col_map.push_back({v, mv.lower, 1.0});
      layout.upper.push_back(std::isfinite(mv.upper) ? mv.upper - mv.lower
                                                     : kInfinity);
      layout.var_cols[v].push_back(layout.col_map.size() - 1);
    } else if (std::isfinite(mv.upper)) {
      // x = ub - y,  y in [0, inf)
      layout.col_map.push_back({v, mv.upper, -1.0});
      layout.upper.push_back(kInfinity);
      layout.var_cols[v].push_back(layout.col_map.size() - 1);
    } else {
      // free: x = y1 - y2
      layout.col_map.push_back({v, 0.0, 1.0});
      layout.upper.push_back(kInfinity);
      layout.var_cols[v].push_back(layout.col_map.size() - 1);
      layout.col_map.push_back({v, 0.0, -1.0});
      layout.upper.push_back(kInfinity);
      layout.var_cols[v].push_back(layout.col_map.size() - 1);
    }
  }
  return layout;
}

namespace {

/// All dense-kernel state.  The layout splits into
///  * static data built once from the model (base rows in a fixed
///    orientation, costs, column mapping),
///  * bound state shadowing the model's variable bounds (offsets / uppers,
///    mutated by set_bounds), and
///  * the live pivoted tableau (tab_/prhs_/basis_/status_/xb_/dj_), which
///    survives between solves so warm restarts can continue from it.
/// `prhs_` is the right-hand side pivoted along with the tableau (B^-1 b');
/// keeping it current is what makes bound changes patchable in O(rows).
struct DenseKernel final : SimplexSolver::Impl {
  std::size_t rows_ = 0;
  std::size_t structural_ = 0;     // model-variable (+ split) columns
  std::size_t cols_ = 0;           // structural + one slack per row
  std::size_t total_cols_ = 0;     // cols_ + one artificial per row
  std::size_t first_artificial_ = 0;

  std::vector<ColumnMap> col_map_;               // size structural_
  std::vector<std::vector<std::size_t>> var_cols_;  // model var -> columns
  std::vector<std::vector<double>> base_rows_;   // rows_ x cols_, unoriented
  std::vector<double> base_rhs_;                 // raw constraint rhs
  std::vector<bool> eq_row_;                     // frozen-slack rows
  std::vector<double> cost_;                     // phase-2 internal costs
  std::vector<double> phase1_cost_;              // 1 on artificials
  double cost_scale_ = 1.0;

  std::vector<double> upper_;                    // per internal column

  bool tableau_valid_ = false;
  std::vector<std::vector<double>> tab_;         // rows_ x total_cols_
  std::vector<double> row_sign_;                 // reset-time row orientation
  std::vector<double> prhs_;                     // pivoted rhs (B^-1 b')
  double rhs_scale_ = 1.0;                       // 1 + max |rhs| at reset
  std::vector<double> xb_;                       // basic variable values
  std::vector<std::size_t> basis_;               // column basic in each row
  std::vector<VarStatus> status_;                // per internal column
  std::vector<double> dj_;                       // reduced costs
  const std::vector<double>* active_cost_ = nullptr;
  /// Pricing list: columns not pinned by equal bounds (upper_ > 0), in
  /// ascending index order (Bland's rule relies on the ordering).  Rebuilt
  /// at every iterate / dual_reoptimize entry — upper_ only changes between
  /// phases (freeze_artificials) or between solves (set_bounds).
  std::vector<std::size_t> live_cols_;

  DenseKernel(const Model& model, const SimplexOptions& options)
      : Impl(model, options) {
    build_static();
  }

  void build_static();
  void reset_tableau();
  void compute_basic_values();
  void recompute_reduced_costs();
  void rebuild_live_cols();
  double current_internal_objective() const;
  std::size_t choose_entering(bool bland) const;
  SolveStatus iterate(bool phase_one, std::size_t& iterations);
  void pivot(std::size_t row, std::size_t col, double entering_value,
             VarStatus leaving_status);
  void pivot_for_load(std::size_t row, std::size_t col);
  bool drive_out_artificials();
  void freeze_artificials();
  LpSolution extract_solution(SolveStatus status,
                              std::size_t iterations) const;

  SolveStatus dual_reoptimize(std::size_t& iterations);
  bool same_basis(const Basis& b) const;
  void load_basis(const Basis& b);
  void adopt_statuses(const Basis& b);
  bool certify(const std::vector<double>& values) const;
  bool certify_dual() const;

  // SimplexSolver::Impl interface.
  std::unique_ptr<Impl> clone() const override { return clone_kernel(*this); }
  void set_bounds(std::size_t var, double lower, double upper) override;
  bool valid() const override { return tableau_valid_; }
  std::size_t num_rows() const override { return rows_; }
  LpSolution run_cold() override;
  bool warm_attempt(const Basis* parent, LpSolution& sol) override;
  Basis snapshot() const override;
};

void DenseKernel::build_static() {
  ColumnLayout layout = build_column_layout(model_);
  col_map_ = std::move(layout.col_map);
  var_cols_ = std::move(layout.var_cols);
  upper_ = std::move(layout.upper);
  structural_ = col_map_.size();
  rows_ = model_.num_constraints();
  cols_ = structural_ + rows_;
  first_artificial_ = cols_;
  // One artificial per row: which rows need one depends on the sign of the
  // (bound-dependent) right-hand side, so a reusable solver must keep every
  // slot allocated; unused artificials stay frozen at zero.
  total_cols_ = cols_ + rows_;

  base_rows_.assign(rows_, std::vector<double>(cols_, 0.0));
  base_rhs_.assign(rows_, 0.0);
  eq_row_.assign(rows_, false);
  for (std::size_t r = 0; r < rows_; ++r) {
    const Constraint& c = model_.constraints()[r];
    auto& row = base_rows_[r];
    for (const auto& [var, coef] : c.lhs.terms()) {
      for (const std::size_t col : var_cols_[var]) {
        row[col] += coef * col_map_[col].sign;
      }
    }
    base_rhs_[r] = c.rhs;
    const std::size_t slack = structural_ + r;
    switch (c.relation) {
      case Relation::kLe:
        row[slack] = 1.0;
        break;
      case Relation::kGe:
        row[slack] = -1.0;
        break;
      case Relation::kEq:
        row[slack] = 0.0;
        eq_row_[r] = true;
        break;
    }
  }
  upper_.resize(total_cols_, kInfinity);
  for (std::size_t r = 0; r < rows_; ++r) {
    upper_[structural_ + r] = eq_row_[r] ? 0.0 : kInfinity;
  }

  cost_scale_ = model_.objective_sense() == Sense::kMinimize ? 1.0 : -1.0;
  cost_.assign(total_cols_, 0.0);
  for (const auto& [var, coef] : model_.objective().terms()) {
    for (const std::size_t col : var_cols_[var]) {
      cost_[col] += cost_scale_ * coef * col_map_[col].sign;
    }
  }
  phase1_cost_.assign(total_cols_, 0.0);
  for (std::size_t c = first_artificial_; c < total_cols_; ++c) {
    phase1_cost_[c] = 1.0;
  }
}

void DenseKernel::reset_tableau() {
  tab_.resize(rows_);
  row_sign_.assign(rows_, 1.0);
  prhs_.assign(rows_, 0.0);
  basis_.assign(rows_, npos);
  status_.assign(total_cols_, VarStatus::kAtLower);
  dj_.assign(total_cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto& row = tab_[r];
    row.assign(total_cols_, 0.0);
    double b = base_rhs_[r];
    const auto& base = base_rows_[r];
    for (std::size_t c = 0; c < structural_; ++c) {
      row[c] = base[c];
      if (col_map_[c].offset != 0.0 && base[c] != 0.0) {
        b -= base[c] * col_map_[c].sign * col_map_[c].offset;
      }
    }
    const std::size_t slack = structural_ + r;
    row[slack] = base[slack];
    if (b < 0.0) {
      for (std::size_t c = 0; c < cols_; ++c) {
        row[c] = -row[c];
      }
      b = -b;
      row_sign_[r] = -1.0;
    }
    prhs_[r] = b;
    const std::size_t art = first_artificial_ + r;
    row[art] = 1.0;
    // A row can start with a basic slack only if its slack coefficient is
    // +1 after normalization; otherwise the artificial carries the row.
    if (row[slack] > 0.5) {
      basis_[r] = slack;
      upper_[art] = 0.0;
    } else {
      basis_[r] = art;
      upper_[art] = kInfinity;
    }
    status_[basis_[r]] = VarStatus::kBasic;
  }
  rhs_scale_ = 1.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    rhs_scale_ = std::max(rhs_scale_, 1.0 + prhs_[r]);  // prhs_ >= 0 here
  }
  xb_ = prhs_;  // every nonbasic column starts at its lower bound
  tableau_valid_ = true;
}

void DenseKernel::compute_basic_values() {
  xb_ = prhs_;
  for (std::size_t c = 0; c < total_cols_; ++c) {
    if (status_[c] == VarStatus::kAtUpper) {
      MCS_ASSERT(std::isfinite(upper_[c]), "at-upper with infinite bound");
      if (upper_[c] == 0.0) continue;
      for (std::size_t r = 0; r < rows_; ++r) {
        xb_[r] -= tab_[r][c] * upper_[c];
      }
    }
  }
}

void DenseKernel::recompute_reduced_costs() {
  const std::vector<double>& c = *active_cost_;
  dj_ = c;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double cb = c[basis_[r]];
    if (cb == 0.0) continue;
    const auto& row = tab_[r];
    for (std::size_t j = 0; j < total_cols_; ++j) {
      dj_[j] -= cb * row[j];
    }
  }
}

void DenseKernel::rebuild_live_cols() {
  live_cols_.clear();
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (upper_[j] > 0.0) {
      live_cols_.push_back(j);
    }
  }
  stats_.fixed_cols_skipped += total_cols_ - live_cols_.size();
}

double DenseKernel::current_internal_objective() const {
  const std::vector<double>& c = *active_cost_;
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

std::size_t DenseKernel::choose_entering(bool bland) const {
  std::size_t best = npos;
  double best_score = opt_.reduced_cost_tol;
  for (const std::size_t j : live_cols_) {
    if (status_[j] == VarStatus::kBasic) continue;
    double violation = 0.0;
    if (status_[j] == VarStatus::kAtLower) {
      violation = -dj_[j];  // want dj < 0 to decrease objective
    } else {
      violation = dj_[j];  // at upper: want dj > 0 (decrease var)
    }
    if (violation > best_score) {
      if (bland) {
        return j;  // smallest index with a violation
      }
      best_score = violation;
      best = j;
    }
  }
  return best;
}

SolveStatus DenseKernel::iterate(bool phase_one, std::size_t& iterations) {
  recompute_reduced_costs();
  rebuild_live_cols();
  std::size_t since_refactor = 0;
  for (;;) {
    if (iterations >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    const bool bland = iterations >= opt_.bland_threshold;
    if (since_refactor >= kRefactorPeriod) {
      recompute_reduced_costs();
      since_refactor = 0;
    }
    const std::size_t q = choose_entering(bland);
    if (q == npos) {
      return SolveStatus::kOptimal;
    }
    ++iterations;
    ++since_refactor;

    const double dir = status_[q] == VarStatus::kAtLower ? 1.0 : -1.0;
    // Ratio test.
    double best_t = std::isfinite(upper_[q]) ? upper_[q] : kInfinity;
    std::size_t leave_row = npos;
    VarStatus leave_status = VarStatus::kAtLower;
    double best_pivot_mag = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double g = dir * tab_[r][q];
      if (g > opt_.pivot_tol) {
        // basic r decreases toward 0
        const double t = std::max(0.0, xb_[r]) / g;
        const bool better =
            t < best_t - 1e-12 ||
            (t < best_t + 1e-12 && leave_row != npos &&
             (bland ? basis_[r] < basis_[leave_row]
                    : std::abs(tab_[r][q]) > best_pivot_mag));
        if (t < best_t - 1e-12 || better) {
          best_t = std::min(best_t, t);
          leave_row = r;
          leave_status = VarStatus::kAtLower;
          best_pivot_mag = std::abs(tab_[r][q]);
        }
      } else if (g < -opt_.pivot_tol && std::isfinite(upper_[basis_[r]])) {
        // basic r increases toward its upper bound
        const double room = upper_[basis_[r]] - xb_[r];
        const double t = std::max(0.0, room) / (-g);
        const bool better =
            t < best_t - 1e-12 ||
            (t < best_t + 1e-12 && leave_row != npos &&
             (bland ? basis_[r] < basis_[leave_row]
                    : std::abs(tab_[r][q]) > best_pivot_mag));
        if (t < best_t - 1e-12 || better) {
          best_t = std::min(best_t, t);
          leave_row = r;
          leave_status = VarStatus::kAtUpper;
          best_pivot_mag = std::abs(tab_[r][q]);
        }
      }
    }

    if (!std::isfinite(best_t)) {
      return phase_one ? SolveStatus::kIterationLimit  // cannot happen
                       : SolveStatus::kUnbounded;
    }

    if (leave_row == npos) {
      // Bound flip: entering variable traverses to its other bound.
      MCS_ASSERT(std::isfinite(upper_[q]), "bound flip without upper bound");
      for (std::size_t r = 0; r < rows_; ++r) {
        xb_[r] -= dir * best_t * tab_[r][q];
      }
      status_[q] = status_[q] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                     : VarStatus::kAtLower;
      ++stats_.bound_flips;
      continue;
    }

    const double entering_start =
        status_[q] == VarStatus::kAtLower ? 0.0 : upper_[q];
    const double entering_value = entering_start + dir * best_t;
    pivot(leave_row, q, entering_value, leave_status);
  }
}

void DenseKernel::pivot(std::size_t row, std::size_t col,
                        double entering_value, VarStatus leaving_status) {
  const std::size_t leaving = basis_[row];
  const double dir = status_[col] == VarStatus::kAtLower ? 1.0 : -1.0;
  const double step = std::abs((entering_value -
                                (status_[col] == VarStatus::kAtLower
                                     ? 0.0
                                     : upper_[col])));
  // Update basic values before changing the tableau.
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r == row) continue;
    xb_[r] -= dir * step * tab_[r][col];
  }
  xb_[row] = entering_value;

  // Row elimination (the pivoted rhs column rides along).
  auto& prow = tab_[row];
  const double pivot_elem = prow[col];
  MCS_ASSERT(std::abs(pivot_elem) > 0.0, "zero pivot");
  const double inv = 1.0 / pivot_elem;
  for (double& entry : prow) {
    entry *= inv;
  }
  prow[col] = 1.0;
  prhs_[row] *= inv;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r == row) continue;
    auto& orow = tab_[r];
    const double factor = orow[col];
    if (factor == 0.0) continue;
    for (std::size_t j = 0; j < total_cols_; ++j) {
      orow[j] -= factor * prow[j];
    }
    orow[col] = 0.0;
    prhs_[r] -= factor * prhs_[row];
  }
  // Incremental reduced-cost update.
  const double dq = dj_[col];
  if (dq != 0.0) {
    for (std::size_t j = 0; j < total_cols_; ++j) {
      dj_[j] -= dq * prow[j];
    }
  }
  dj_[col] = 0.0;

  basis_[row] = col;
  status_[col] = VarStatus::kBasic;
  status_[leaving] = leaving_status;
  if (leaving_status == VarStatus::kAtUpper &&
      !std::isfinite(upper_[leaving])) {
    // Leaving at "upper" with infinite bound cannot happen (ratio test
    // guards with isfinite); normalize to lower for safety.
    status_[leaving] = VarStatus::kAtLower;
  }
}

// Bare tableau pivot used while loading a basis snapshot: no xb / dj upkeep
// (both are recomputed wholesale afterwards).
void DenseKernel::pivot_for_load(std::size_t row, std::size_t col) {
  auto& prow = tab_[row];
  const double inv = 1.0 / prow[col];
  for (double& entry : prow) {
    entry *= inv;
  }
  prow[col] = 1.0;
  prhs_[row] *= inv;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r == row) continue;
    auto& orow = tab_[r];
    const double factor = orow[col];
    if (factor == 0.0) continue;
    for (std::size_t j = 0; j < total_cols_; ++j) {
      orow[j] -= factor * prow[j];
    }
    orow[col] = 0.0;
    prhs_[r] -= factor * prhs_[row];
  }
  status_[basis_[row]] = VarStatus::kAtLower;
  basis_[row] = col;
  status_[col] = VarStatus::kBasic;
}

bool DenseKernel::drive_out_artificials() {
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] < first_artificial_) continue;
    // Basic artificial (value must be ~0 after a feasible phase 1).
    if (std::abs(xb_[r]) > opt_.feasibility_tol) {
      return false;
    }
    // Try to pivot in any non-artificial column with a usable element.
    std::size_t replacement = npos;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (upper_[j] <= 0.0) continue;
      if (std::abs(tab_[r][j]) > opt_.pivot_tol) {
        replacement = j;
        break;
      }
    }
    if (replacement == npos) {
      continue;  // redundant row; artificial stays basic at zero
    }
    const double entering_value =
        status_[replacement] == VarStatus::kAtLower ? 0.0
                                                    : upper_[replacement];
    // Degenerate pivot: entering keeps its current value (step 0).
    pivot(r, replacement, entering_value, VarStatus::kAtLower);
  }
  freeze_artificials();
  return true;
}

void DenseKernel::freeze_artificials() {
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

LpSolution DenseKernel::extract_solution(SolveStatus status,
                                         std::size_t iterations) const {
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

LpSolution DenseKernel::run_cold() {
  reset_tableau();
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
    active_cost_ = &phase1_cost_;
    const SolveStatus p1 = iterate(/*phase_one=*/true, iterations);
    if (p1 == SolveStatus::kIterationLimit) {
      return extract_solution(SolveStatus::kIterationLimit, iterations);
    }
    // Relative infeasibility test: the phase-1 objective (total artificial
    // residual) scales with the problem's rhs magnitudes, so an absolute
    // threshold misclassifies well-posed but large-rhs models as
    // infeasible.  Scale-relative, consistent with the ratio-test
    // tolerances in dual_reoptimize below — but capped: uncapped, tick
    // magnitudes around 1e8-1e9 would push the threshold past one tick,
    // the smallest true violation in the analysis models, and a genuinely
    // infeasible model would slip through as feasible.  The cap keeps the
    // threshold at least a decade below tick scale for the default
    // feasibility_tol.
    if (current_internal_objective() >
        opt_.feasibility_tol * 10.0 * std::min(rhs_scale_, kPhase1ScaleCap)) {
      freeze_artificials();
      return extract_solution(SolveStatus::kInfeasible, iterations);
    }
  }
  if (!drive_out_artificials()) {
    return extract_solution(SolveStatus::kInfeasible, iterations);
  }

  active_cost_ = &cost_;
  const SolveStatus p2 = iterate(/*phase_one=*/false, iterations);
  return extract_solution(p2, iterations);
}

/// Dual simplex until primal feasibility.  Requires a pivoted tableau with
/// fresh xb_/dj_.  Returns kOptimal when primal feasible (a closing primal
/// phase then certifies optimality), kInfeasible on a valid infeasibility
/// certificate, kIterationLimit when the caller should fall back cold.
SolveStatus DenseKernel::dual_reoptimize(std::size_t& iterations) {
  rebuild_live_cols();
  std::size_t since_refactor = 0;
  for (;;) {
    if (iterations >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    const bool bland = iterations >= opt_.bland_threshold;
    if (since_refactor >= kRefactorPeriod) {
      recompute_reduced_costs();
      compute_basic_values();
      since_refactor = 0;
    }

    // Most-violated basic variable leaves.  The violation threshold is
    // scaled by the variable's magnitude: on tick-valued models (entries
    // ~1e7) an absolute 1e-7 cutoff is below floating-point noise, and an
    // absolute-threshold dual grinds degenerate pivots forever chasing
    // noise it can never eliminate.
    std::size_t row = npos;
    double worst = 0.0;
    bool below = true;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double x = xb_[r];
      const double ub = upper_[basis_[r]];
      const double scale =
          1.0 + std::abs(x) + (std::isfinite(ub) ? ub : 0.0);
      const double tol = opt_.feasibility_tol * scale;
      if (-x > tol && -x - tol > worst) {
        worst = -x - tol;
        row = r;
        below = true;
      }
      if (std::isfinite(ub) && x - ub > tol && x - ub - tol > worst) {
        worst = x - ub - tol;
        row = r;
        below = false;
      }
    }
    if (row == npos) {
      return SolveStatus::kOptimal;  // primal feasible
    }

    // Entering column: preserves dual feasibility (min |dj| / |alpha|
    // ratio) among columns that can move the leaving variable back to its
    // violated bound.  The pivot floor is relative to the row's magnitude:
    // an absolute floor lets ~1e-8 pivots through on rows with ~1e7
    // entries, and one such pivot wrecks the dense tableau for good.
    const auto& trow = tab_[row];
    double row_mag = 0.0;
    for (std::size_t j = 0; j < total_cols_; ++j) {
      row_mag = std::max(row_mag, std::abs(trow[j]));
    }
    const double alpha_floor =
        std::max(opt_.pivot_tol, 1e-9 * row_mag);
    std::size_t best = npos;
    double best_ratio = kInfinity;
    double best_mag = 0.0;
    for (const std::size_t j : live_cols_) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double alpha = trow[j];
      if (std::abs(alpha) <= alpha_floor) continue;
      const bool at_lower = status_[j] == VarStatus::kAtLower;
      const bool candidate =
          below ? (at_lower ? alpha < 0.0 : alpha > 0.0)
                : (at_lower ? alpha > 0.0 : alpha < 0.0);
      if (!candidate) continue;
      const double ratio = std::abs(dj_[j]) / std::abs(alpha);
      if (bland) {
        if (best == npos) best = j;  // smallest candidate index
        continue;
      }
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && std::abs(alpha) > best_mag)) {
        best = j;
        best_ratio = ratio;
        best_mag = std::abs(alpha);
      }
    }
    if (best == npos) {
      // On exact arithmetic this row would prove primal infeasibility, but
      // the relative pivot floor (and accumulated tableau error) can also
      // produce it spuriously — solve_warm never trusts it and re-solves
      // cold for the authoritative status.
      return SolveStatus::kInfeasible;
    }

    ++iterations;
    ++since_refactor;
    const double target = below ? 0.0 : upper_[basis_[row]];
    const double alpha = trow[best];
    const double dir = status_[best] == VarStatus::kAtLower ? 1.0 : -1.0;
    const double t = (xb_[row] - target) / (alpha * dir);
    MCS_ASSERT(t >= 0.0, "dual simplex: negative step");
    const double start =
        status_[best] == VarStatus::kAtLower ? 0.0 : upper_[best];
    pivot(row, best, start + dir * t,
          below ? VarStatus::kAtLower : VarStatus::kAtUpper);
  }
}

bool DenseKernel::same_basis(const Basis& b) const {
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
void DenseKernel::adopt_statuses(const Basis& b) {
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

/// Independent feasibility audit of an extracted solution against the
/// *original* model rows and the solver's current bound view.  The dense
/// tableau accumulates floating-point error across forced (dual / basis
/// load) pivots; when that error grows past noise the claimed vertex stops
/// satisfying the real constraints, and this check is what catches it —
/// solve_warm falls back to an authoritative cold solve on failure.  Cost
/// is one pass over the constraint matrix (about one pivot's worth).
bool DenseKernel::certify(const std::vector<double>& values) const {
  // Tolerances are relative to the magnitude of what is being checked:
  // tick-valued models carry ~1e7 entries, where even a clean primal path
  // leaves noise far above any absolute epsilon.
  const double ftol = 100.0 * opt_.feasibility_tol;
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
  for (const Constraint& con : model_.constraints()) {
    const double lhs = model_.evaluate(con.lhs, values);
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

/// Independent *optimality* audit of the current claimed-optimal basis.
/// certify() only proves the extracted point is feasible; a corrupted
/// tableau can still present a feasible-but-suboptimal vertex as "optimal",
/// and inside branch & bound such an under-bound wrongly prunes subtrees.
/// This check recovers the dual vector y = c_B B^-1 from the tableau's
/// artificial block and verifies dual feasibility of every column against
/// the pristine constraint matrix: basic columns must price to ~0, columns
/// at lower bound to >= 0, columns at upper bound to <= 0.  Together with
/// certify() this is a complete primal-dual certificate, so the warm path
/// never returns a bound the original data cannot back up.  Cost is two
/// passes over the matrix (about two pivots' worth).
bool DenseKernel::certify_dual() const {
  const double dtol = 100.0 * opt_.feasibility_tol;
  // y (unoriented rows): the artificial block of tab_ is B^-1 because the
  // artificials entered reset_tableau as an identity block.
  std::vector<double> y(rows_, 0.0);
  for (std::size_t q = 0; q < rows_; ++q) {
    const double cb = cost_[basis_[q]];
    if (cb == 0.0) continue;
    const auto& trow = tab_[q];
    for (std::size_t r = 0; r < rows_; ++r) {
      y[r] += cb * trow[first_artificial_ + r];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    y[r] *= row_sign_[r];
    // A basic artificial carrying weight means the tableau point does not
    // lie in the original constraint space at all.
    if (basis_[r] >= first_artificial_ &&
        std::abs(xb_[r]) > dtol * (1.0 + std::abs(prhs_[r]))) {
      return false;
    }
  }
  // Price every live column against the original rows.
  std::vector<double> dj(cols_);
  std::vector<double> mag(cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    dj[j] = cost_[j];
    mag[j] = std::abs(cost_[j]);
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const double yr = y[r];
    if (yr == 0.0) continue;
    const auto& row = base_rows_[r];
    for (std::size_t j = 0; j < cols_; ++j) {
      const double t = yr * row[j];
      dj[j] -= t;
      mag[j] += std::abs(t);
    }
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    if (status_[j] != VarStatus::kBasic && upper_[j] <= 0.0) {
      continue;  // fixed column: any sign is dual feasible
    }
    const double tol = dtol * (1.0 + mag[j]);
    switch (status_[j]) {
      case VarStatus::kBasic:
        if (std::abs(dj[j]) > tol) return false;
        break;
      case VarStatus::kAtLower:
        if (dj[j] < -tol) return false;
        break;
      case VarStatus::kAtUpper:
        if (dj[j] > tol) return false;
        break;
    }
  }
  return true;
}

/// Best-effort crash of the snapshot basis: rebuild the base tableau under
/// the current bounds, then pivot the requested columns in row by row.
/// Rows whose requested pivot element is numerically unusable keep whatever
/// basis they have — the subsequent dual + primal phases are correct from
/// any basis, a partial load merely costs extra pivots.
void DenseKernel::load_basis(const Basis& b) {
  reset_tableau();
  // Structural columns first, then slacks: a slack requested in a foreign
  // row has no coefficient there until other pivots fill the row in.
  // Artificials only ever stay basic in their own row, where reset already
  // placed a unit column.
  const auto pass = [&](bool structural_pass) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t want = b.basic[r];
      if (basis_[r] == want) continue;
      const bool is_structural = want < structural_;
      if (is_structural != structural_pass) continue;
      if (status_[want] == VarStatus::kBasic) continue;  // taken elsewhere
      // Relative pivot floor: skipping a row is cheap (a few extra dual
      // pivots), eliminating with a tiny pivot on a large row is not.
      double row_mag = 0.0;
      const auto& trow = tab_[r];
      for (std::size_t j = 0; j < cols_; ++j) {
        row_mag = std::max(row_mag, std::abs(trow[j]));
      }
      if (std::abs(trow[want]) <=
          std::max(opt_.pivot_tol, 1e-7 * row_mag)) {
        continue;
      }
      pivot_for_load(r, want);
    }
  };
  pass(true);
  pass(false);
  adopt_statuses(b);
  freeze_artificials();
}

void DenseKernel::set_bounds(std::size_t var, double lower, double upper) {
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
  if (status_.size() == total_cols_ &&
      status_[c] == VarStatus::kAtUpper && !std::isfinite(upper_[c])) {
    status_[c] = VarStatus::kAtLower;
  }
  if (tableau_valid_ && d_off != 0.0) {
    // Shifting the column's offset shifts the effective rhs: patch the
    // pivoted rhs with the pivoted column (O(rows)).
    for (std::size_t r = 0; r < rows_; ++r) {
      const double a = tab_[r][c];
      if (a != 0.0) prhs_[r] -= a * d_off;
    }
  }
}

bool DenseKernel::warm_attempt(const Basis* parent, LpSolution& sol) {
  if (parent != nullptr && !parent->empty()) {
    if (same_basis(*parent)) {
      adopt_statuses(*parent);
    } else {
      load_basis(*parent);
    }
  }
  compute_basic_values();
  active_cost_ = &cost_;
  recompute_reduced_costs();

  // Cap this attempt's pivots: a warm restart that needs more than a few
  // times the row count is pathological (degenerate grinding), and the
  // cold fallback is cheaper than letting it run to max_iterations.
  const std::size_t saved_max = opt_.max_iterations;
  opt_.max_iterations = std::min(saved_max, warm_budget());
  std::size_t iterations = 0;
  const SolveStatus dual = dual_reoptimize(iterations);
  SolveStatus final_status = dual;
  if (dual == SolveStatus::kOptimal) {
    final_status = iterate(/*phase_one=*/false, iterations);
  }
  opt_.max_iterations = saved_max;
  sol.iterations = iterations;
  // Only a *certified* optimum is returned from the warm path.  Everything
  // else — iteration limit, an infeasibility certificate (which tableau
  // error can fabricate), an unboundedness claim, or an extracted solution
  // that fails the independent feasibility audit — is re-solved cold; the
  // cold result is authoritative.
  if (final_status == SolveStatus::kOptimal) {
    sol = extract_solution(final_status, iterations);
    if (certify(sol.values) && certify_dual()) {
      return true;
    }
  }
  return false;
}

Basis DenseKernel::snapshot() const {
  Basis b;
  if (!tableau_valid_) return b;
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

}  // namespace

std::unique_ptr<SimplexSolver::Impl> make_dense_kernel(
    const Model& model, const SimplexOptions& options) {
  return std::make_unique<DenseKernel>(model, options);
}

SimplexSolver::SimplexSolver(const Model& model,
                             const SimplexOptions& options)
    : impl_(options.kernel == SimplexKernel::kDense
                ? make_dense_kernel(model, options)
                : make_sparse_kernel(model, options)) {}

SimplexSolver::SimplexSolver(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

SimplexSolver::~SimplexSolver() = default;

std::unique_ptr<SimplexSolver> SimplexSolver::clone() const {
  return std::unique_ptr<SimplexSolver>(new SimplexSolver(impl_->clone()));
}

void SimplexSolver::set_bounds(VarId v, double lower, double upper) {
  impl_->set_bounds(v.index, lower, upper);
}

namespace {

/// Emits the per-solve delta of the kernel-maintained counters.  The
/// kernels only bump `stats_` — a hashed telemetry lookup per pivot would
/// dominate the pivot itself on these small models.
void flush_kernel_telemetry(const SimplexStats& now,
                            const SimplexStats& before) {
  namespace telemetry = support::telemetry;
  if (!telemetry::enabled()) {
    return;
  }
  const auto emit = [](const char* key, std::size_t prev, std::size_t cur) {
    if (cur != prev) {
      support::telemetry::count(key, cur - prev);
    }
  };
  emit("simplex.refactorizations", before.refactorizations,
       now.refactorizations);
  emit("simplex.eta_nnz", before.eta_nnz, now.eta_nnz);
  emit("simplex.bound_flips", before.bound_flips, now.bound_flips);
  emit("simplex.devex_resets", before.devex_resets, now.devex_resets);
  emit("simplex.fixed_cols_skipped", before.fixed_cols_skipped,
       now.fixed_cols_skipped);
}

}  // namespace

LpSolution SimplexSolver::solve() {
  namespace telemetry = support::telemetry;
  impl_->warm_since_cold_ = 0;
  const SimplexStats before = impl_->stats_;
  LpSolution sol = impl_->run_cold();
  ++impl_->stats_.cold_solves;
  impl_->stats_.cold_pivots += sol.iterations;
  if (telemetry::enabled()) {
    telemetry::count("simplex.cold_pivots", sol.iterations);
  }
  flush_kernel_telemetry(impl_->stats_, before);
  return sol;
}

LpSolution SimplexSolver::solve_warm(const Basis* parent) {
  namespace telemetry = support::telemetry;
  Impl& im = *impl_;
  if (!im.valid()) {
    return solve();
  }
  if (++im.warm_since_cold_ > kWarmRefreshPeriod) {
    // Scheduled hygiene restart: bounds drift accumulated in the pivoted
    // right-hand side (dense) or eta file round-off (sparse) resets.
    return solve();
  }
  ++im.stats_.warm_solves;
  const SimplexStats before = im.stats_;
  LpSolution sol;
  const bool certified = im.warm_attempt(parent, sol);
  im.stats_.warm_pivots += sol.iterations;
  if (telemetry::enabled()) {
    telemetry::count("simplex.warm_pivots", sol.iterations);
  }
  flush_kernel_telemetry(im.stats_, before);
  if (certified) {
    return sol;
  }
  ++im.stats_.warm_fallbacks;
  if (telemetry::enabled()) {
    telemetry::count("simplex.warm_fallbacks");
  }
  return solve();
}

Basis SimplexSolver::basis() const { return impl_->snapshot(); }

const SimplexStats& SimplexSolver::stats() const noexcept {
  return impl_->stats_;
}

LpSolution solve_lp(const Model& model, const SimplexOptions& options) {
  namespace telemetry = support::telemetry;
  const telemetry::ScopedTimer timer("lp.solve_lp");
  SimplexSolver solver(model, options);
  LpSolution sol = solver.solve();
  if (telemetry::enabled()) {
    telemetry::count("lp.solves");
    telemetry::count("lp.simplex_iterations", sol.iterations);
    if (sol.status == SolveStatus::kIterationLimit) {
      telemetry::count("lp.iteration_limit_hits");
    }
  }
  return sol;
}

}  // namespace mcs::lp
