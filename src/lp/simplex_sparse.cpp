// Sparse revised-simplex kernel: CSC constraint matrix, product-form-
// inverse (eta-file) basis with periodic refactorization, Devex pricing
// with partial pricing (Bland fallback), and a bound-flipping dual ratio
// test.  Implements the same SimplexSolver::Impl contract as the dense
// tableau kernel in simplex.cpp; see simplex_impl.hpp for the split.
//
// Per-pivot cost is O(eta entries + rows + pivot-row nonzeros) against the
// dense kernel's O(rows * total_cols): the delay MILPs are ~1% dense, so
// the revised update wins by orders of magnitude on the branch & bound hot
// path.  No pass of an iteration sweeps all columns:
//  * fill_alpha_row lists the columns its CSR row adds touch (alpha_nz());
//    the dual candidate scan (which also takes the row max-abs for the
//    relative pivot floor) and pivot_update's reduced-cost / Devex sweep
//    walk that list, and the next fill clears only it;
//  * the bound-flipping ratio test finds the first breakpoint by one scan
//    and heapifies the rest only when it flips, so it never sorts them;
//  * primal pricing visits attract_, the live nonbasic columns whose
//    reduced cost violates optimality, updated per pivot on the pivot
//    row's nonzeros;
//  * refactorization places slack and artificial basis columns straight
//    into their own rows (unit etas) before any structural eta exists.
// Each of these makes exactly the choices of a full sweep, so pivots,
// bound flips and refactorizations are those of the plain algorithm.
//
// Numerics: the eta file accumulates round-off, so the kernel (a) rebuilds
// the factorization on an eta-count / eta-entry budget, (b) recomputes
// xb / reduced costs wholesale after every rebuild, (c) certifies cold
// optima against the pristine model data (the dense kernel only certifies
// warm results), and (d) on an uncertifiable cold result replays its bound
// state into a transient dense-tableau solve, whose answer is
// authoritative.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "lp/basis.hpp"
#include "lp/simplex.hpp"
#include "lp/simplex_impl.hpp"
#include "lp/sparse_matrix.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::lp {
namespace {

/// Floor below which a pivot element is unusable regardless of tolerances.
constexpr double kTinyPivot = 1e-12;
/// Devex weights above this trigger a reference-framework reset.
constexpr double kDevexResetThreshold = 1e7;
/// Relative acceptance floor for pivots chosen during refactorization.
constexpr double kRefactorPivotRel = 1e-9;
/// "Not in the list" marker of the per-column list positions.
constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

struct SparseKernel final : SimplexSolver::Impl {
  // Static data (built once from the model) on top of the skeleton's
  // column space.
  SparseMatrix mat_;                 // rows_ x cols_, oriented (coef * sign)

  // Bound state: the unpivoted rhs under the current offsets.
  std::vector<double> eff_rhs_;      // base_rhs - A * offsets, unpivoted

  // Factorization state.
  bool factor_valid_ = false;
  bool last_refactor_changed_basis_ = false;
  EtaFile eta_;
  std::size_t factor_etas_ = 0;      // eta count right after refactorize
  std::size_t factor_entries_ = 0;   // eta entries right after refactorize
  std::vector<double> art_sign_;     // per row, set at cold reset
  std::vector<double> dj_;
  /// dj_ is maintained incrementally across pivots; this says it still
  /// matches (basis_, cost_) so a same-basis warm attempt can skip the
  /// BTRAN + full pricing pass of compute_dj.  Any basis rebuild or cost
  /// switch clears it; the optimality certificates backstop drift.
  bool dj_valid_ = false;
  std::vector<double> devex_w_;
  double devex_max_ = 1.0;
  std::size_t pricing_cursor_ = 0;
  // Primal pricing state, set up by start_pricing() for one primal phase
  // (upper_ does not change within it).  live_cols_ lists the columns with
  // upper_ > 0 ascending, live_pos_ maps a column to its index there.
  // attract_ holds every live nonbasic column whose reduced cost violates
  // optimality — exactly the columns a full pricing scan would score —
  // and attract_slot_ maps a column to its index in attract_ (kNoSlot when
  // absent).  A pivot changes dj_ only on the pivot row's nonzeros and
  // status only for the entering and leaving columns, so the set is kept
  // up to date per pivot instead of rescanning every column.
  std::vector<std::size_t> live_cols_;
  std::vector<std::uint32_t> live_pos_;
  std::vector<std::uint32_t> attract_;
  std::vector<std::uint32_t> attract_slot_;

  // Scratch (sized rows_ / total_cols_; reused to avoid allocation).
  std::vector<double> work_;
  std::vector<double> rho_;
  std::vector<double> y_;
  std::vector<double> alpha_row_;    // size total_cols_, zero off alpha_nz()
  std::vector<std::uint32_t> alpha_cols_;  // size total_cols_ + 1
  std::size_t alpha_count_ = 0;      // alpha_cols_[0, count): columns touched
  std::vector<char> alpha_mark_;     // size total_cols_, 1 on alpha_nz()
  struct Cand {
    double ratio;
    std::size_t j;
    double mag;
  };
  std::vector<Cand> cands_;          // dual ratio-test breakpoints
  std::vector<std::size_t> flips_;   // dual long-step bound flips
  std::vector<std::size_t> rf_structural_rows_;
  std::vector<char> rf_placed_;
  std::vector<std::size_t> rf_new_basis_;
  std::vector<char> rf_in_basis_;    // refactorize scratch

  SparseKernel(const Model& model, const SimplexOptions& options)
      : Impl(model, options) {
    build_static();
  }

  void build_static();
  void recompute_eff_rhs();
  bool refactorize();
  bool maybe_refactor(bool force);
  void compute_xb();
  void compute_dj();
  void start_pricing();
  void refresh_attract();
  void update_attract(std::size_t j);
  void scatter_internal_column(std::size_t c, std::vector<double>& out) const;
  bool primal_feasible() const;
  std::size_t choose_entering(bool bland);
  void fill_alpha_row();             // from rho_, into alpha_row_
  /// The columns the last fill_alpha_row touched: alpha_row_ is zero off
  /// this list, so the passes over the pivot row walk it.
  std::span<const std::uint32_t> alpha_nz() const {
    return {alpha_cols_.data(), alpha_count_};
  }
  bool pivot_update(std::size_t p, std::size_t q,
                    const std::vector<double>& alpha, double entering_value,
                    VarStatus leaving_status, bool have_alpha_row,
                    bool use_devex);
  std::size_t choose_leaving_row(double& row_tol, bool& below) const;
  std::size_t dual_ratio_test(std::size_t row, bool below, double row_tol,
                              bool bland);
  LpSolution dense_fallback_cold();

  // SimplexSolver::Impl hooks.
  std::unique_ptr<Impl> copy() const override {
    return std::make_unique<SparseKernel>(*this);
  }
  bool valid() const override { return factor_valid_; }
  void shift_offset(std::size_t col, double delta) override;
  LpSolution run_cold() override;
  void reset_cold() override;
  void price_phase() override { compute_dj(); }
  SolveStatus primal_phase(bool phase_one, std::size_t& iterations) override;
  SolveStatus dual_phase(std::size_t& iterations) override;
  SolveStatus recheck_phase1(std::size_t& iterations) override;
  bool drive_out_artificials() override;
  bool load_basis(const Basis& b) override;
  bool refresh_warm() override;
  bool certify_dual() override;
};

void SparseKernel::build_static() {
  SparseMatrix::Builder builder(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const auto& [var, coef] : model_.row(r).terms) {
      for (const std::size_t col : var_cols_[var]) {
        builder.add(r, col, coef * col_map_[col].sign);
      }
    }
    if (slack_coef_[r] != 0.0) {
      builder.add(r, structural_ + r, slack_coef_[r]);
    }
  }
  mat_ = std::move(builder).build();

  art_sign_.assign(rows_, 1.0);
  recompute_eff_rhs();
  alpha_row_.assign(total_cols_, 0.0);
  alpha_mark_.assign(total_cols_, 0);
  alpha_cols_.assign(total_cols_ + 1, 0);
  work_.assign(rows_, 0.0);
  rho_.assign(rows_, 0.0);
  y_.assign(rows_, 0.0);
}

void SparseKernel::recompute_eff_rhs() {
  eff_rhs_ = base_rhs_;
  for (std::size_t c = 0; c < structural_; ++c) {
    const double off = col_map_[c].offset;
    if (off != 0.0) {
      // coef*x contributes coef*offset = a' * sign * offset to the lhs.
      mat_.axpy_column(c, -col_map_[c].sign * off, eff_rhs_.data());
    }
  }
}

void SparseKernel::scatter_internal_column(std::size_t c,
                                           std::vector<double>& out) const {
  out.assign(rows_, 0.0);
  if (c < cols_) {
    mat_.scatter_column(c, out.data());
  } else {
    const std::size_t r = c - first_artificial_;
    out[r] = art_sign_[r];
  }
}

void SparseKernel::reset_cold() {
  recompute_eff_rhs();
  status_.assign(total_cols_, VarStatus::kAtLower);
  // dj_/devex weights must be sized before drive_out_artificials' pivots
  // touch them: a solve can reach that path without ever pricing (no
  // phase 1 needed but a zero-valued basic artificial on an = row).
  dj_.assign(total_cols_, 0.0);
  devex_w_.assign(total_cols_, 1.0);
  devex_max_ = 1.0;
  basis_.assign(rows_, npos);
  art_sign_.assign(rows_, 1.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double b = eff_rhs_[r];
    const double s = slack_coef_[r];
    const std::size_t art = first_artificial_ + r;
    // Slack basic iff it can carry the row feasibly (b/s >= 0); otherwise
    // an artificial oriented to the rhs sign does, so its value |b| >= 0.
    if ((s == 1.0 && b >= 0.0) || (s == -1.0 && b <= 0.0)) {
      basis_[r] = structural_ + r;
      upper_[art] = 0.0;
    } else {
      basis_[r] = art;
      art_sign_[r] = b >= 0.0 ? 1.0 : -1.0;
      upper_[art] = kInfinity;
    }
    status_[basis_[r]] = VarStatus::kBasic;
  }
  const bool ok = refactorize();
  MCS_ASSERT(ok, "cold reset: unit basis refactorization cannot fail");
  static_cast<void>(ok);
  compute_xb();
  pricing_cursor_ = 0;
}

bool SparseKernel::refactorize() {
  ++stats_.refactorizations;
  eta_.reset(rows_);
  last_refactor_changed_basis_ = false;
  dj_valid_ = false;

  rf_placed_.assign(rows_, 0);
  std::vector<char>& placed = rf_placed_;
  rf_new_basis_.assign(rows_, npos);
  std::vector<std::size_t>& new_basis = rf_new_basis_;
  const std::size_t entries_before = eta_.eta_entries();

  // Unit basis columns go first, artificials then slacks, so the file holds
  // only diagonal etas while they are placed.  FTRAN through those leaves
  // `coef * e_u` unchanged while row u is free, and the pivot search then
  // finds u; once u is taken the column is dependent and dropped.  So each
  // is placed directly, without the dense scatter / FTRAN / row scan.
  const auto place_unit = [&](std::size_t r, std::size_t u, double coef) {
    if (placed[u] || coef == 0.0) {
      last_refactor_changed_basis_ = true;  // column dropped from the basis
      return;
    }
    eta_.append_unit(u, coef);
    placed[u] = true;
    new_basis[u] = basis_[r];
    if (u != r) last_refactor_changed_basis_ = true;
  };
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] >= first_artificial_) {
      const std::size_t u = basis_[r] - first_artificial_;
      place_unit(r, u, art_sign_[u]);
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t c = basis_[r];
    if (c >= structural_ && c < first_artificial_) {
      place_unit(r, c - structural_, slack_coef_[c - structural_]);
    }
  }

  // Structural columns go by ascending nnz so early etas stay thin and
  // later FTRANs through them stay cheap.
  std::vector<std::size_t>& structural_rows = rf_structural_rows_;
  structural_rows.clear();
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] < structural_) structural_rows.push_back(r);
  }
  std::stable_sort(structural_rows.begin(), structural_rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     return mat_.column_nnz(basis_[a]) <
                            mat_.column_nnz(basis_[b]);
                   });
  for (const std::size_t r : structural_rows) {
    const std::size_t c = basis_[r];
    work_.assign(rows_, 0.0);
    const double colmax = mat_.scatter_column(c, work_.data());
    eta_.ftran(work_.data());
    std::size_t best_p = npos;
    double best_v = 0.0;
    for (std::size_t p = 0; p < rows_; ++p) {
      if (placed[p]) continue;
      const double v = std::abs(work_[p]);
      if (v > best_v) {
        best_v = v;
        best_p = p;
      }
    }
    if (best_p == npos || best_v <= kRefactorPivotRel * (1.0 + colmax)) {
      last_refactor_changed_basis_ = true;  // column dropped from the basis
      continue;
    }
    eta_.append(work_.data(), best_p, 0.0);
    placed[best_p] = true;
    new_basis[best_p] = c;
    if (best_p != r) last_refactor_changed_basis_ = true;
  }
  // Rows left without a pivot get their artificial back (basic at zero
  // bounds, so the dual phase repairs any residual value).
  for (std::size_t p = 0; p < rows_; ++p) {
    if (placed[p]) continue;
    work_.assign(rows_, 0.0);
    work_[p] = art_sign_[p];
    eta_.ftran(work_.data());
    if (std::abs(work_[p]) <= kRefactorPivotRel) {
      factor_valid_ = false;
      return false;
    }
    eta_.append(work_.data(), p, 0.0);
    new_basis[p] = first_artificial_ + p;
    last_refactor_changed_basis_ = true;
  }
  stats_.eta_nnz += eta_.eta_entries() - entries_before;
  factor_etas_ = eta_.eta_count();
  factor_entries_ = eta_.eta_entries();

  std::swap(basis_, new_basis);
  rf_in_basis_.assign(total_cols_, 0);
  std::vector<char>& in_basis = rf_in_basis_;
  for (std::size_t r = 0; r < rows_; ++r) {
    in_basis[basis_[r]] = 1;
  }
  for (std::size_t c = 0; c < total_cols_; ++c) {
    if (in_basis[c]) {
      status_[c] = VarStatus::kBasic;
    } else if (status_[c] == VarStatus::kBasic) {
      status_[c] = VarStatus::kAtLower;
    }
  }
  factor_valid_ = true;
  return true;
}

bool SparseKernel::maybe_refactor(bool force) {
  // Both caps measure growth SINCE the last factorization: refactorize()
  // itself seeds the file with ~one eta per non-unit basis column, so a
  // total-count trigger would re-fire immediately on any basis with more
  // than count_cap structural columns and thrash.
  const std::size_t count_cap = std::min(
      kRefactorPeriod, std::max<std::size_t>(32, rows_ / 2));
  const std::size_t entry_cap =
      std::max<std::size_t>(1024, 4 * (mat_.nnz() + rows_));
  if (force || eta_.eta_count() - factor_etas_ >= count_cap ||
      eta_.eta_entries() - factor_entries_ >= entry_cap) {
    refactorize();
    return true;
  }
  return false;
}

void SparseKernel::compute_xb() {
  work_ = eff_rhs_;
  for (std::size_t c = 0; c < total_cols_; ++c) {
    if (status_[c] != VarStatus::kAtUpper) continue;
    MCS_ASSERT(std::isfinite(upper_[c]), "at-upper with infinite bound");
    if (upper_[c] == 0.0) continue;
    if (c < cols_) {
      mat_.axpy_column(c, -upper_[c], work_.data());
    } else {
      work_[c - first_artificial_] -=
          art_sign_[c - first_artificial_] * upper_[c];
    }
  }
  eta_.ftran(work_.data());
  xb_ = work_;
}

void SparseKernel::compute_dj() {
  const std::vector<double>& c = active_cost();
  y_.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    y_[r] = c[basis_[r]];
  }
  eta_.btran(y_.data());
  dj_.assign(total_cols_, 0.0);
  for (std::size_t j = 0; j < cols_; ++j) {
    dj_[j] = c[j] - mat_.dot_column(j, y_.data());
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t j = first_artificial_ + r;
    dj_[j] = c[j] - y_[r] * art_sign_[r];
  }
  dj_valid_ = !phase_one_;
}

/// One pass over all columns at the start of a primal phase: reset the
/// Devex weights, list the live columns and collect the attractive ones.
void SparseKernel::start_pricing() {
  devex_w_.assign(total_cols_, 1.0);
  devex_max_ = 1.0;
  live_cols_.clear();
  attract_.clear();
  live_pos_.assign(total_cols_, kNoSlot);
  attract_slot_.assign(total_cols_, kNoSlot);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (upper_[j] > 0.0) {
      live_pos_[j] = static_cast<std::uint32_t>(live_cols_.size());
      live_cols_.push_back(j);
      update_attract(j);
    }
  }
  stats_.fixed_cols_skipped += total_cols_ - live_cols_.size();
}

/// Rebuilds attract_ after dj_ was recomputed wholesale.
void SparseKernel::refresh_attract() {
  for (const std::uint32_t j : attract_) {
    attract_slot_[j] = kNoSlot;
  }
  attract_.clear();
  for (const std::size_t j : live_cols_) {
    update_attract(j);
  }
}

/// Puts column j into attract_ or takes it out, from its current status
/// and reduced cost.
void SparseKernel::update_attract(std::size_t j) {
  bool attractive = false;
  if (upper_[j] > 0.0 && status_[j] != VarStatus::kBasic) {
    const double violation =
        status_[j] == VarStatus::kAtLower ? -dj_[j] : dj_[j];
    attractive = violation > opt_.reduced_cost_tol;
  }
  const std::uint32_t slot = attract_slot_[j];
  if (attractive && slot == kNoSlot) {
    attract_slot_[j] = static_cast<std::uint32_t>(attract_.size());
    attract_.push_back(static_cast<std::uint32_t>(j));
  } else if (!attractive && slot != kNoSlot) {
    const std::uint32_t last = attract_.back();
    attract_[slot] = last;
    attract_slot_[last] = slot;
    attract_.pop_back();
    attract_slot_[j] = kNoSlot;
  }
}

bool SparseKernel::primal_feasible() const {
  for (std::size_t r = 0; r < rows_; ++r) {
    const double x = xb_[r];
    const double ub = upper_[basis_[r]];
    const double tol = opt_.feasibility_tol *
                       (1.0 + std::abs(x) + (std::isfinite(ub) ? ub : 0.0));
    if (-x > tol) return false;
    if (std::isfinite(ub) && x - ub > tol) return false;
  }
  return true;
}

/// Devex pricing over a rotating partial-pricing window of the live list;
/// Bland mode takes the first violation in ascending column order.  Only
/// attract_ is visited: it holds exactly the columns the scan would score.
/// The choice is the scan's: the live list is read as rotated to start at
/// the pricing cursor and cut into chunks; the first chunk holding a
/// scored column wins, and within it the best score, ties to the earliest
/// column in scan order.
std::size_t SparseKernel::choose_entering(bool bland) {
  if (attract_.empty()) return npos;
  if (bland) {
    return *std::min_element(attract_.begin(), attract_.end());
  }
  // Partial pricing pays only when the live list is large: on small models
  // a narrow window picks weak entering columns, which costs extra pivots
  // AND lands on worse vertices for the MILP branching above.  The floor
  // makes pricing exhaustive below ~2k columns.
  const std::size_t n = live_cols_.size();
  const std::size_t seg = std::max<std::size_t>(2048, n / 8);
  const std::size_t start = pricing_cursor_ % n;
  std::size_t best = npos;
  std::size_t best_chunk = npos;
  std::size_t best_rot = 0;
  double best_score = 0.0;
  for (const std::uint32_t j : attract_) {
    const double violation =
        status_[j] == VarStatus::kAtLower ? -dj_[j] : dj_[j];
    const double score = violation * violation / devex_w_[j];
    if (!(score > 0.0)) continue;
    const std::size_t pos = live_pos_[j];
    const std::size_t rot = pos >= start ? pos - start : pos + n - start;
    const std::size_t chunk = rot / seg;
    if (chunk < best_chunk ||
        (chunk == best_chunk &&
         (score > best_score || (score == best_score && rot < best_rot)))) {
      best = j;
      best_chunk = chunk;
      best_rot = rot;
      best_score = score;
    }
  }
  if (best != npos) {
    pricing_cursor_ = (start + std::min(n, (best_chunk + 1) * seg)) % n;
  }
  return best;
}

/// alpha_row_[j] = (B^-1 A_j)[p] for every internal column, given
/// rho_ = BTRAN(e_p).  One sequential CSR pass over the rows where rho is
/// nonzero (a column-major gather here costs a cache line per column) plus
/// the implicit artificial block.  alpha_nz() lists every column written;
/// the row is zero elsewhere, so the passes over it walk that list, and
/// the next fill clears only it.
void SparseKernel::fill_alpha_row() {
  for (const std::uint32_t j : alpha_nz()) {
    alpha_row_[j] = 0.0;
    alpha_mark_[j] = 0;
  }
  std::size_t count = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double rr = rho_[r];
    if (rr == 0.0) continue;
    count = mat_.add_row_scaled(r, rr, alpha_row_.data(), alpha_mark_.data(),
                                alpha_cols_.data(), count);
    alpha_row_[first_artificial_ + r] = rr * art_sign_[r];
    alpha_cols_[count++] = static_cast<std::uint32_t>(first_artificial_ + r);
  }
  alpha_count_ = count;
}

/// Executes one basis change: entering column q (FTRANed into `alpha`)
/// replaces the variable basic in row p.  Updates xb, appends the eta,
/// and sweeps the pivot row once to update reduced costs and Devex
/// weights.  Returns false — leaving all state untouched — when the pivot
/// element is numerically unusable (caller refactorizes and retries).
bool SparseKernel::pivot_update(std::size_t p, std::size_t q,
                                const std::vector<double>& alpha,
                                double entering_value,
                                VarStatus leaving_status,
                                bool have_alpha_row, bool use_devex) {
  if (std::abs(alpha[p]) <= kTinyPivot) {
    return false;
  }
  const std::size_t leaving = basis_[p];
  const double dir = status_[q] == VarStatus::kAtLower ? 1.0 : -1.0;
  const double step = std::abs(
      entering_value - (status_[q] == VarStatus::kAtLower ? 0.0 : upper_[q]));
  // Subtracting +0.0 leaves any value bit-identical, so zero entries of
  // alpha need no branch; row p is overwritten after the loop.
  const double shift = dir * step;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double a = alpha[r];
    xb_[r] -= a != 0.0 ? shift * a : 0.0;
  }
  xb_[p] = entering_value;

  // Pivot row under the *old* basis (the eta is appended afterwards).
  if (!have_alpha_row) {
    rho_.assign(rows_, 0.0);
    rho_[p] = 1.0;
    eta_.btran(rho_.data());
    fill_alpha_row();
  }
  const double dq = dj_[q];
  const double inv_piv = 1.0 / alpha[p];
  const double wq = use_devex ? devex_w_[q] : 0.0;
  for (const std::uint32_t j : alpha_nz()) {
    const double ar = alpha_row_[j];
    if (ar == 0.0) continue;
    const double ratio = ar * inv_piv;
    if (dq != 0.0) {
      dj_[j] -= dq * ratio;
    }
    if (use_devex && j != q && status_[j] != VarStatus::kBasic) {
      const double cand = ratio * ratio * wq;
      if (cand > devex_w_[j]) {
        devex_w_[j] = cand;
        if (cand > devex_max_) devex_max_ = cand;
      }
    }
  }
  dj_[q] = 0.0;

  const std::size_t entries_before = eta_.eta_entries();
  eta_.append(alpha.data(), p, 0.0);
  stats_.eta_nnz += eta_.eta_entries() - entries_before;

  basis_[p] = q;
  status_[q] = VarStatus::kBasic;
  status_[leaving] = leaving_status;
  if (leaving_status == VarStatus::kAtUpper &&
      !std::isfinite(upper_[leaving])) {
    status_[leaving] = VarStatus::kAtLower;
  }
  if (use_devex) {
    const double wl = std::max(wq * inv_piv * inv_piv, 1.0);
    devex_w_[leaving] = wl;
    if (wl > devex_max_) devex_max_ = wl;
    if (devex_max_ > kDevexResetThreshold) {
      devex_w_.assign(total_cols_, 1.0);
      devex_max_ = 1.0;
      ++stats_.devex_resets;
    }
  }
  return true;
}

SolveStatus SparseKernel::primal_phase(bool phase_one,
                                       std::size_t& iterations) {
  start_pricing();
  std::size_t stall_retries = 0;
  for (;;) {
    if (iterations >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    const bool bland = iterations >= opt_.bland_threshold;
    if (maybe_refactor(false)) {
      if (!factor_valid_) return SolveStatus::kIterationLimit;
      compute_dj();
      compute_xb();
      if (last_refactor_changed_basis_ && !primal_feasible()) {
        // A repair pivot displaced a basic column; the primal phase cannot
        // restore feasibility — let the caller restart authoritatively.
        return SolveStatus::kIterationLimit;
      }
      refresh_attract();
    }
    const std::size_t q = choose_entering(bland);
    if (q == npos) {
      return SolveStatus::kOptimal;
    }
    ++iterations;

    scatter_internal_column(q, work_);
    eta_.ftran(work_.data());

    const double dir = status_[q] == VarStatus::kAtLower ? 1.0 : -1.0;
    double best_t = std::isfinite(upper_[q]) ? upper_[q] : kInfinity;
    std::size_t leave_row = npos;
    VarStatus leave_status = VarStatus::kAtLower;
    double best_pivot_mag = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double a = work_[r];
      const double g = dir * a;
      if (g > opt_.pivot_tol) {
        const double t = std::max(0.0, xb_[r]) / g;
        const bool better =
            t < best_t - 1e-12 ||
            (t < best_t + 1e-12 && leave_row != npos &&
             (bland ? basis_[r] < basis_[leave_row]
                    : std::abs(a) > best_pivot_mag));
        if (t < best_t - 1e-12 || better) {
          best_t = std::min(best_t, t);
          leave_row = r;
          leave_status = VarStatus::kAtLower;
          best_pivot_mag = std::abs(a);
        }
      } else if (g < -opt_.pivot_tol && std::isfinite(upper_[basis_[r]])) {
        const double room = upper_[basis_[r]] - xb_[r];
        const double t = std::max(0.0, room) / (-g);
        const bool better =
            t < best_t - 1e-12 ||
            (t < best_t + 1e-12 && leave_row != npos &&
             (bland ? basis_[r] < basis_[leave_row]
                    : std::abs(a) > best_pivot_mag));
        if (t < best_t - 1e-12 || better) {
          best_t = std::min(best_t, t);
          leave_row = r;
          leave_status = VarStatus::kAtUpper;
          best_pivot_mag = std::abs(a);
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
        if (work_[r] != 0.0) {
          xb_[r] -= dir * best_t * work_[r];
        }
      }
      status_[q] = status_[q] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                     : VarStatus::kAtLower;
      update_attract(q);
      ++stats_.bound_flips;
      continue;
    }

    const double entering_start =
        status_[q] == VarStatus::kAtLower ? 0.0 : upper_[q];
    const double entering_value = entering_start + dir * best_t;
    const std::size_t leaving = basis_[leave_row];
    if (!pivot_update(leave_row, q, work_, entering_value, leave_status,
                      /*have_alpha_row=*/false, /*use_devex=*/!bland)) {
      if (++stall_retries > 2) return SolveStatus::kIterationLimit;
      maybe_refactor(true);
      if (!factor_valid_) return SolveStatus::kIterationLimit;
      compute_dj();
      compute_xb();
      refresh_attract();
      continue;
    }
    stall_retries = 0;
    for (const std::uint32_t j : alpha_nz()) {
      update_attract(j);
    }
    update_attract(q);
    update_attract(leaving);
  }
}

/// Most-violated basic variable (scale-relative threshold, same rationale
/// as the dense kernel): returns its row, or npos when xb is primal
/// feasible, and sets the row's tolerance and which bound it violates.
std::size_t SparseKernel::choose_leaving_row(double& row_tol,
                                             bool& below) const {
  // A violation v > tol is the same test as v - tol > 0 in IEEE
  // arithmetic, and worst >= 0, so each bound takes one comparison.
  std::size_t row = npos;
  double worst = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double x = xb_[r];
    const double ub = upper_[basis_[r]];
    const bool boxed = std::isfinite(ub);
    const double scale = 1.0 + std::abs(x) + (boxed ? ub : 0.0);
    const double tol = opt_.feasibility_tol * scale;
    if (-x - tol > worst) {
      worst = -x - tol;
      row = r;
      row_tol = tol;
      below = true;
    }
    if (boxed && x - ub - tol > worst) {
      worst = x - ub - tol;
      row = r;
      row_tol = tol;
      below = false;
    }
  }
  return row;
}

/// Dual ratio test on the pivot row in alpha_row_ for the variable basic
/// in `row`, which violates its lower (`below`) or upper bound.  Returns
/// the entering column, after applying the bound flips the long step
/// takes, or npos on an infeasibility signal (state untouched).
std::size_t SparseKernel::dual_ratio_test(std::size_t row, bool below,
                                          double row_tol, bool bland) {
  // Candidate entering columns: correct sign to move the leaving variable
  // back to its violated bound while preserving dual feasibility up to
  // each candidate's breakpoint |dj| / |alpha|.  Candidates below a
  // relative pivot floor max(pivot_tol, 1e-9 * row max-abs) are excluded;
  // the max-abs is taken in the same pass, so the pass keeps everything
  // above pivot_tol and the floor is applied after.
  //
  // Both passes append branch-free (write every entry, advance past the
  // kept ones): whether an entry is kept does not follow a pattern.  A
  // kept alpha is nonzero, so the sign test reads: below wants alpha < 0
  // at the lower bound and alpha > 0 at the upper bound, above the reverse.
  std::vector<Cand>& cands = cands_;
  cands.resize(alpha_count_ + 1);
  std::size_t n = 0;
  double row_mag = 0.0;
  for (const std::uint32_t j : alpha_nz()) {
    const double alpha = alpha_row_[j];
    const double mag = std::abs(alpha);
    row_mag = std::max(row_mag, mag);
    const VarStatus st = status_[j];
    const bool keep = (mag > opt_.pivot_tol) & (st != VarStatus::kBasic) &
                      (upper_[j] > 0.0) &
                      (((st == VarStatus::kAtLower) == (alpha < 0.0)) ==
                       below);
    cands[n].j = j;
    cands[n].mag = mag;
    n += static_cast<std::size_t>(keep);
  }
  const double alpha_floor = std::max(opt_.pivot_tol, 1e-9 * row_mag);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Cand c = cands[k];
    cands[kept] = {std::abs(dj_[c.j]) / c.mag, c.j, c.mag};
    kept += static_cast<std::size_t>(c.mag > alpha_floor);
  }
  cands.resize(kept);
  // No candidate: as in the dense kernel this can be a genuine Farkas row
  // or an artifact of the pivot floor — warm callers never trust it.
  if (cands.empty()) return npos;
  if (bland) {
    // Smallest candidate index, no long step.
    return std::min_element(cands.begin(), cands.end(),
                            [](const Cand& a, const Cand& b) {
                              return a.j < b.j;
                            })->j;
  }

  // Bound-flipping ratio test: walk breakpoints in increasing (ratio, j);
  // while flipping a boxed candidate bound-to-bound still leaves the
  // leaving variable violated, take the flip (no pivot, no eta) and keep
  // going.  The first candidate that would overshoot pivots.  The walk
  // usually stops at the first or second breakpoint, so the first is
  // found by one scan and the rest are heapified only if it flips, then
  // popped lazily; the order is total, hence the same as a sort's.
  const auto later = [](const Cand& a, const Cand& b) {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;
    return a.j > b.j;
  };
  std::iter_swap(std::max_element(cands.begin(), cands.end(), later),
                 cands.end() - 1);
  const double target = below ? 0.0 : upper_[basis_[row]];
  double residual = std::abs(xb_[row] - target);
  std::vector<std::size_t>& flips = flips_;
  flips.clear();
  std::size_t chosen = npos;
  for (auto end = cands.end(); end != cands.begin(); --end) {
    if (end == cands.end() - 1) {
      std::make_heap(cands.begin(), end, later);
    }
    if (end != cands.end()) {
      std::pop_heap(cands.begin(), end, later);
    }
    const Cand& cand = end[-1];
    const double u = upper_[cand.j];
    if (std::isfinite(u) && residual - cand.mag * u > row_tol) {
      flips.push_back(cand.j);
      residual -= cand.mag * u;
      continue;
    }
    chosen = cand.j;
    break;
  }
  // Flipping everything still leaves the row violated: infeasibility
  // signal.  The flips are NOT applied — state stays consistent for the
  // caller's cold fallback.
  if (chosen == npos) return npos;
  if (!flips.empty()) {
    work_.assign(rows_, 0.0);
    for (const std::size_t j : flips) {
      const double shift =
          status_[j] == VarStatus::kAtLower ? upper_[j] : -upper_[j];
      mat_.axpy_column(j, shift, work_.data());
      status_[j] = status_[j] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                     : VarStatus::kAtLower;
    }
    eta_.ftran(work_.data());
    for (std::size_t r = 0; r < rows_; ++r) {
      xb_[r] -= work_[r];
    }
    stats_.bound_flips += flips.size();
  }
  return chosen;
}

/// Dual simplex with a bound-flipping (long-step) ratio test.  Same entry
/// contract as the dense kernel's dual_phase: requires fresh xb_/dj_,
/// returns kOptimal on primal feasibility, kInfeasible on an (uncertified)
/// infeasibility signal, kIterationLimit when the caller should go cold.
SolveStatus SparseKernel::dual_phase(std::size_t& iterations) {
  // Fixed columns never enter: the ratio test skips upper_[j] == 0.
  stats_.fixed_cols_skipped += static_cast<std::size_t>(std::count_if(
      upper_.begin(), upper_.end(), [](double u) { return !(u > 0.0); }));
  std::size_t stall_retries = 0;
  for (;;) {
    if (iterations >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    const bool bland = iterations >= opt_.bland_threshold;
    if (maybe_refactor(false)) {
      if (!factor_valid_) return SolveStatus::kIterationLimit;
      compute_dj();
      compute_xb();
    }

    double row_tol = 0.0;
    bool below = true;
    const std::size_t row = choose_leaving_row(row_tol, below);
    if (row == npos) {
      return SolveStatus::kOptimal;
    }

    rho_.assign(rows_, 0.0);
    rho_[row] = 1.0;
    eta_.btran(rho_.data());
    fill_alpha_row();
    const std::size_t chosen = dual_ratio_test(row, below, row_tol, bland);
    if (chosen == npos) {
      return SolveStatus::kInfeasible;
    }

    ++iterations;
    const double target = below ? 0.0 : upper_[basis_[row]];
    const double alpha = alpha_row_[chosen];
    const double dir = status_[chosen] == VarStatus::kAtLower ? 1.0 : -1.0;
    // Post-flip noise can push the step marginally negative; clamp (the
    // dense kernel asserts instead — it never flips before stepping).
    const double t = std::max(0.0, (xb_[row] - target) / (alpha * dir));
    const double start =
        status_[chosen] == VarStatus::kAtLower ? 0.0 : upper_[chosen];

    scatter_internal_column(chosen, work_);
    eta_.ftran(work_.data());
    if (!pivot_update(row, chosen, work_, start + dir * t,
                      below ? VarStatus::kAtLower : VarStatus::kAtUpper,
                      /*have_alpha_row=*/true, /*use_devex=*/false)) {
      if (++stall_retries > 2) return SolveStatus::kIterationLimit;
      maybe_refactor(true);
      if (!factor_valid_) return SolveStatus::kIterationLimit;
      compute_dj();
      compute_xb();
      continue;
    }
    stall_retries = 0;
  }
}

bool SparseKernel::drive_out_artificials() {
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] < first_artificial_) continue;
    if (std::abs(xb_[r]) > opt_.feasibility_tol) {
      return false;
    }
    rho_.assign(rows_, 0.0);
    rho_[r] = 1.0;
    eta_.btran(rho_.data());
    fill_alpha_row();
    // Smallest eligible non-artificial index.
    std::size_t replacement = npos;
    for (const std::uint32_t j : alpha_nz()) {
      if (j >= first_artificial_ || j >= replacement) continue;
      if (status_[j] == VarStatus::kBasic) continue;
      if (upper_[j] <= 0.0) continue;
      if (std::abs(alpha_row_[j]) > opt_.pivot_tol) {
        replacement = j;
      }
    }
    if (replacement == npos) {
      continue;  // redundant row; artificial stays basic at zero
    }
    const double entering_value =
        status_[replacement] == VarStatus::kAtLower ? 0.0
                                                    : upper_[replacement];
    scatter_internal_column(replacement, work_);
    eta_.ftran(work_.data());
    // Degenerate pivot (step 0); a tiny FTRANed pivot just keeps the
    // artificial basic — harmless, same as the dense "redundant row" case.
    pivot_update(r, replacement, work_, entering_value, VarStatus::kAtLower,
                 /*have_alpha_row=*/true, /*use_devex=*/false);
  }
  return true;
}

/// Refactor-confirm before declaring infeasibility: eta round-off can leave
/// phantom artificial residue that a fresh factorization (and a few more
/// pivots) clears.
SolveStatus SparseKernel::recheck_phase1(std::size_t& iterations) {
  maybe_refactor(true);
  if (!factor_valid_) {
    return SolveStatus::kIterationLimit;
  }
  compute_dj();
  compute_xb();
  return primal_phase(/*phase_one=*/true, iterations);
}

/// Authoritative escape hatch for cold solves the eta file cannot certify:
/// replay the current bounds into a one-shot dense-tableau kernel over the
/// same model (right-hand sides are the model's own) and return its
/// answer.  The factorization is dropped so the next solve starts cold
/// (the facade's warm path degrades gracefully on an empty snapshot).
LpSolution SparseKernel::dense_fallback_cold() {
  support::telemetry::count("simplex.dense_fallbacks");
  SimplexOptions dense_opt = opt_;
  dense_opt.kernel = SimplexKernel::kDense;
  auto dense = make_dense_kernel(model_, dense_opt);
  for (std::size_t v = 0; v < var_cols_.size(); ++v) {
    if (var_cols_[v].size() != 1) continue;
    const std::size_t c = var_cols_[v].front();
    if (col_map_[c].sign <= 0.0) continue;
    dense->set_bounds(v, col_map_[c].offset,
                      std::isfinite(upper_[c]) ? col_map_[c].offset + upper_[c]
                                               : kInfinity);
  }
  LpSolution sol = dense->run_cold();
  factor_valid_ = false;
  return sol;
}

LpSolution SparseKernel::run_cold() {
  LpSolution sol = cold_phases();
  if (sol.status == SolveStatus::kOptimal) {
    if (certify(sol.values) && certify_dual()) {
      return sol;
    }
    // One refactor-and-repolish attempt before the dense fallback.
    maybe_refactor(true);
    if (factor_valid_) {
      compute_dj();
      compute_xb();
      std::size_t iterations = sol.iterations;
      if (reoptimize(iterations, sol)) {
        return sol;
      }
    }
    return dense_fallback_cold();
  }
  if (sol.status == SolveStatus::kIterationLimit) {
    return dense_fallback_cold();
  }
  return sol;  // kInfeasible / kUnbounded: gate-confirmed, parity with dense
}

/// Loads a parent basis snapshot: adopt its basis header wholesale and
/// refactorize — the rebuild places every column it can and repairs the
/// rest with artificials, which is exactly the dense kernel's best-effort
/// crash semantics.  Returns false when the snapshot is unusable.
bool SparseKernel::load_basis(const Basis& b) {
  if (b.basic.size() != rows_ || b.status.size() != total_cols_) {
    return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    if (b.basic[r] >= total_cols_) return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    basis_[r] = b.basic[r];
  }
  for (std::size_t c = 0; c < total_cols_; ++c) {
    VarStatus s = static_cast<VarStatus>(b.status[c]);
    if (s == VarStatus::kAtUpper && !std::isfinite(upper_[c])) {
      s = VarStatus::kAtLower;
    }
    status_[c] = s;
  }
  return refactorize();
}

/// Dual certificate against the pristine CSC matrix: y = BTRAN(c_B), then
/// every column must price dual-feasibly for its status.  Same contract
/// and tolerances as the dense kernel's certify_dual (which reads y from
/// its tableau's artificial block instead).
bool SparseKernel::certify_dual() {
  const double dtol = certify_tol();
  y_.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    y_[r] = cost_[basis_[r]];
  }
  eta_.btran(y_.data());
  for (std::size_t r = 0; r < rows_; ++r) {
    if (basis_[r] >= first_artificial_ &&
        std::abs(xb_[r]) > dtol * rhs_scale_) {
      return false;  // basic artificial carrying weight
    }
  }
  return columns_dual_feasible([&](std::size_t j) {
    return std::pair{cost_[j] - mat_.dot_column(j, y_.data()),
                     std::abs(cost_[j]) + mat_.abs_dot_column(j, y_.data())};
  });
}

/// O(column nnz) patch of the unpivoted effective rhs; xb is recomputed
/// wholesale (one FTRAN) at the next warm attempt, so unlike the dense
/// kernel nothing pivoted needs touching here.
void SparseKernel::shift_offset(std::size_t col, double delta) {
  mat_.axpy_column(col, -delta, eff_rhs_.data());
}

bool SparseKernel::refresh_warm() {
  maybe_refactor(false);
  if (!factor_valid_) return false;
  // Bound patches never touch reduced costs, so a same-basis warm restart
  // can keep the incrementally-maintained dj row; only the basic values
  // must be rebuilt from the patched rhs.
  if (!dj_valid_) compute_dj();
  compute_xb();
  return true;
}

}  // namespace

std::unique_ptr<SimplexSolver::Impl> make_sparse_kernel(
    const Model& model, const SimplexOptions& options) {
  return std::make_unique<SparseKernel>(model, options);
}

}  // namespace mcs::lp
