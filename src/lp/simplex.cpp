// Dense full-tableau kernel plus the SimplexSolver facade (kernel
// selection, warm/cold orchestration, stats, telemetry).  The sparse
// revised-simplex kernel lives in simplex_sparse.cpp; both plug into the
// skeleton SimplexSolver::Impl (simplex_impl.hpp, simplex_impl.cpp).
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

namespace {

/// Dense-kernel state on top of the skeleton's column space:
///  * static data built once from the model (base rows in a fixed
///    orientation), and
///  * the live pivoted tableau (tab_/prhs_/row_sign_/dj_), which survives
///    between solves so warm restarts can continue from it.
/// `prhs_` is the right-hand side pivoted along with the tableau (B^-1 b');
/// keeping it current is what makes bound changes patchable in O(rows).
struct DenseKernel final : SimplexSolver::Impl {
  std::vector<std::vector<double>> base_rows_;   // rows_ x cols_, unoriented

  bool tableau_valid_ = false;
  std::vector<std::vector<double>> tab_;         // rows_ x total_cols_
  std::vector<double> row_sign_;                 // reset-time row orientation
  std::vector<double> prhs_;                     // pivoted rhs (B^-1 b')
  std::vector<double> dj_;                       // reduced costs
  /// Pricing list: columns not pinned by equal bounds (upper_ > 0), in
  /// ascending index order (Bland's rule relies on the ordering).  Rebuilt
  /// at every primal / dual phase entry — upper_ only changes between
  /// phases (freeze_artificials) or between solves (set_bounds).
  std::vector<std::size_t> live_cols_;

  DenseKernel(const Model& model, const SimplexOptions& options)
      : Impl(model, options) {
    build_rows();
  }

  void build_rows();
  void compute_basic_values();
  void recompute_reduced_costs();
  void rebuild_live_cols();
  std::size_t choose_entering(bool bland) const;
  void pivot(std::size_t row, std::size_t col, double entering_value,
             VarStatus leaving_status);
  void pivot_for_load(std::size_t row, std::size_t col);

  // SimplexSolver::Impl hooks.
  std::unique_ptr<Impl> copy() const override {
    return std::make_unique<DenseKernel>(*this);
  }
  bool valid() const override { return tableau_valid_; }
  void shift_offset(std::size_t col, double delta) override;
  void reset_cold() override;
  /// primal_phase prices on entry, so a phase start needs nothing more.
  void price_phase() override {}
  SolveStatus primal_phase(bool phase_one, std::size_t& iterations) override;
  SolveStatus dual_phase(std::size_t& iterations) override;
  bool drive_out_artificials() override;
  bool load_basis(const Basis& b) override;
  bool refresh_warm() override;
  bool certify_dual() override;
};

void DenseKernel::build_rows() {
  base_rows_.assign(rows_, std::vector<double>(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r) {
    auto& row = base_rows_[r];
    for (const auto& [var, coef] : model_.row(r).terms) {
      for (const std::size_t col : var_cols_[var]) {
        row[col] += coef * col_map_[col].sign;
      }
    }
    row[structural_ + r] = slack_coef_[r];
  }
}

void DenseKernel::reset_cold() {
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
  const std::vector<double>& c = active_cost();
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

SolveStatus DenseKernel::primal_phase(bool phase_one,
                                      std::size_t& iterations) {
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
  return true;
}

/// Dual simplex until primal feasibility.  Requires a pivoted tableau with
/// fresh xb_/dj_.  Returns kOptimal when primal feasible (a closing primal
/// phase then certifies optimality), kInfeasible on a valid infeasibility
/// certificate, kIterationLimit when the caller should fall back cold.
SolveStatus DenseKernel::dual_phase(std::size_t& iterations) {
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

/// Independent *optimality* audit of the current claimed-optimal basis.
/// certify() only proves the extracted point is feasible; a corrupted
/// tableau can still present a feasible-but-suboptimal vertex as "optimal",
/// and inside branch & bound such an under-bound wrongly prunes subtrees.
/// This check recovers the dual vector y = c_B B^-1 from the tableau's
/// artificial block and prices every column against the pristine
/// constraint matrix (columns_dual_feasible).  Together with certify()
/// this is a complete primal-dual certificate, so the warm path never
/// returns a bound the original data cannot back up.  Cost is two passes
/// over the matrix (about two pivots' worth).
bool DenseKernel::certify_dual() {
  const double dtol = certify_tol();
  // y (unoriented rows): the artificial block of tab_ is B^-1 because the
  // artificials entered reset_cold as an identity block.
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
  // Price every column against the original rows.
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
  return columns_dual_feasible(
      [&](std::size_t j) { return std::pair{dj[j], mag[j]}; });
}

/// Best-effort crash of the snapshot basis: rebuild the base tableau under
/// the current bounds, then pivot the requested columns in one by one.  A
/// column with no usable pivot in any free row (numerically dependent on
/// the ones already in) is left out — the subsequent dual + primal phases
/// are correct from any basis, a partial load merely costs extra pivots.
bool DenseKernel::load_basis(const Basis& b) {
  reset_cold();
  // A row is free until its basic column is one the snapshot wants basic
  // (reset may already have placed a wanted slack or artificial there).
  std::vector<char> wanted(total_cols_, 0);
  for (const std::uint32_t c : b.basic) wanted[c] = 1;
  // Structural columns first, then slacks: a slack requested in a foreign
  // row has no coefficient there until other pivots fill the row in.  Row
  // positions differ between kernels (a sparse snapshot lists its basis in
  // LU order), so each column goes to a free row by scaled threshold
  // partial pivoting: its snapshot row when the entry there, relative to
  // its row's largest, is within kThreshold of the best such ratio over
  // the free rows, else the best row.  No row is skipped for a small pivot
  // in one place.
  constexpr double kThreshold = 0.1;
  const auto pass = [&](bool structural_pass) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t want = b.basic[r];
      if (status_[want] == VarStatus::kBasic) continue;
      if ((want < structural_) != structural_pass) continue;
      // Relative to the row's largest entry, tick-scale rows and unit rows
      // compete evenly.
      std::size_t best = npos;
      double best_rel = 0.0;
      double own_rel = 0.0;
      for (std::size_t q = 0; q < rows_; ++q) {
        if (wanted[basis_[q]]) continue;
        const auto& trow = tab_[q];
        const double mag = std::abs(trow[want]);
        if (mag <= opt_.pivot_tol) continue;
        double row_mag = 0.0;
        for (std::size_t j = 0; j < cols_; ++j) {
          row_mag = std::max(row_mag, std::abs(trow[j]));
        }
        const double rel = mag / row_mag;
        if (q == r) own_rel = rel;
        if (rel > best_rel) {
          best = q;
          best_rel = rel;
        }
      }
      if (best == npos) continue;  // numerically dependent: dual repairs
      const bool own = own_rel >= kThreshold * best_rel;
      pivot_for_load(own ? r : best, want);
    }
  };
  pass(true);
  pass(false);
  adopt_statuses(b);
  return true;
}

/// Shifting the column's offset shifts the effective rhs: patch the
/// pivoted rhs with the pivoted column (O(rows)).
void DenseKernel::shift_offset(std::size_t col, double delta) {
  if (!tableau_valid_) return;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double a = tab_[r][col];
    if (a != 0.0) prhs_[r] -= a * delta;
  }
}

bool DenseKernel::refresh_warm() {
  compute_basic_values();
  recompute_reduced_costs();
  return true;
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
