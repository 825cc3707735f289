// Internal interface between SimplexSolver's public facade and its two
// interchangeable kernels.  Not installed; include only from lp/*.cpp.
//
// SimplexSolver::Impl is the kernel-independent skeleton of the bounded-
// variable simplex (simplex_impl.cpp).  It owns
//  * the internal column space, one for both kernels, so a Basis snapshot
//    from either kernel indexes columns identically:
//      [0, structural)               shifted / split model-variable columns
//      [structural, structural+rows) one slack per row
//      [structural+rows, total)      one artificial per row
//    with the column mapping, upper bounds, statuses, basis header, basic
//    values and the phase-1 / phase-2 cost rows;
//  * bound shadowing: set_bounds' contract checks and offset shift;
//  * the primal certificate and the status check of the dual certificate;
//  * solution extraction, basis snapshots, same-basis adoption and
//    artificial freezing;
//  * the two phase drivers: the cold phase 1 -> drive-out -> phase 2 solve
//    (cold_phases) and the warm attempt's budget-and-certify wrapper.
// A kernel (simplex.cpp: dense tableau; simplex_sparse.cpp: revised
// simplex with a PFI basis) keeps only its matrix and basis representation
// and supplies it through the hooks below, each called once per phase or
// per solve.  Pricing, ratio tests, pivots and refactorization stay inside
// the kernel, non-virtual.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace mcs::lp {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Cap on the rhs-relative scaling of the phase-1 infeasibility gate:
/// the gate must grow with problem magnitude to absorb summation noise,
/// yet stay well below one tick (the smallest genuine violation) even on
/// models with 1e9-scale right-hand sides.
constexpr double kPhase1ScaleCap = 1e5;

/// Recompute the reduced-cost row from scratch every this many pivots to
/// curb error accumulation in the incremental update (dense kernel); the
/// sparse kernel refactorizes after min(this, max(32, rows / 2)) etas.
constexpr std::size_t kRefactorPeriod = 256;

/// Force a cold re-solve after this many consecutive warm solves so that
/// round-off accumulated in the pivoted right-hand side cannot drift
/// unbounded across a long branch & bound run.
constexpr std::size_t kWarmRefreshPeriod = 512;

enum class VarStatus : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// Internal column: value x = offset + sign * y where y is the simplex
/// variable with bounds [0, upper] (upper possibly +inf).  Free model
/// variables are split into two internal columns (sign +1 and -1).
struct ColumnMap {
  std::size_t model_var = static_cast<std::size_t>(-1);
  double offset = 0.0;
  double sign = 1.0;
};

struct SimplexSolver::Impl {
  const Model& model_;
  SimplexOptions opt_;
  std::size_t warm_since_cold_ = 0;
  SimplexStats stats_;

  // Internal column space, built once from the model.
  std::size_t rows_ = 0;
  std::size_t structural_ = 0;        // model-variable (+ split) columns
  std::size_t cols_ = 0;              // structural + one slack per row
  std::size_t total_cols_ = 0;        // cols_ + one artificial per row
  std::size_t first_artificial_ = 0;
  std::vector<ColumnMap> col_map_;                  // size structural_
  std::vector<std::vector<std::size_t>> var_cols_;  // model var -> columns
  std::vector<double> base_rhs_;      // raw constraint rhs
  std::vector<double> slack_coef_;    // +1 (<=), -1 (>=), 0 (=)
  std::vector<double> cost_;          // phase-2 internal costs
  std::vector<double> phase1_cost_;   // 1 on artificials
  /// The cost row the current phase prices: phase1_cost_ when set, else
  /// cost_.  A flag, not a pointer, so a memberwise copy is self-contained.
  bool phase_one_ = false;

  // Bound state (shadows the model; mutated by set_bounds) and the basis.
  std::vector<double> upper_;         // per internal column
  std::vector<VarStatus> status_;     // per internal column
  std::vector<std::size_t> basis_;    // column basic in each row
  std::vector<double> xb_;            // basic variable values
  double rhs_scale_ = 1.0;            // 1 + max |xb| at the last cold reset

  Impl(const Model& model, const SimplexOptions& options);
  virtual ~Impl() = default;
  Impl& operator=(const Impl&) = delete;

  // ---- Facade entry points ----------------------------------------------

  /// Independent copy in the same state, bound to the same model, with its
  /// stats at zero.  Fed the same calls, the copy returns bit-identical
  /// results (SimplexSolver::clone).
  std::unique_ptr<Impl> clone() const;
  void set_bounds(std::size_t var, double lower, double upper);
  /// Full cold solve from the current bound/rhs state.
  virtual LpSolution run_cold() { return cold_phases(); }
  /// One warm attempt: load/adopt `parent` when given, dual reoptimize,
  /// close with a primal phase, certify.  Always sets `sol.iterations` to
  /// the pivots consumed; returns true iff `sol` is a certified optimum
  /// (anything else sends the facade to the authoritative cold fallback).
  bool warm_attempt(const Basis* parent, LpSolution& sol);
  Basis snapshot() const;

  /// Pivot budget for one warm attempt (dual + closing primal), scaled to
  /// the row count.  A healthy warm restart takes a handful of pivots; one
  /// that does not is cheaper to abandon for a cold solve than to grind
  /// out.
  std::size_t warm_budget() const { return 4 * rows_ + 100; }

  // ---- Kernel hooks ------------------------------------------------------

  /// A memberwise copy of the whole kernel (clone zeroes its stats).
  virtual std::unique_ptr<Impl> copy() const = 0;
  /// True when a warm restart has a basis representation to start from.
  virtual bool valid() const = 0;
  /// Column `col`'s offset moved by `delta`: patch the right-hand side the
  /// kernel keeps (set_bounds has already updated col_map_ and upper_).
  virtual void shift_offset(std::size_t col, double delta) = 0;
  /// Cold start: the slack / artificial basis of the current bounds, with
  /// status_, basis_, xb_ and a matching representation.
  virtual void reset_cold() = 0;
  /// Reduced costs from scratch for the phase about to start.
  virtual void price_phase() = 0;
  /// Primal simplex until optimal (kOptimal), unbounded or out of pivots.
  virtual SolveStatus primal_phase(bool phase_one,
                                   std::size_t& iterations) = 0;
  /// Dual simplex until primal feasible (kOptimal); kInfeasible on an
  /// uncertified infeasibility signal, kIterationLimit when the caller
  /// should go cold.  Requires fresh xb_ and reduced costs.
  virtual SolveStatus dual_phase(std::size_t& iterations) = 0;
  /// Second look at a phase 1 that ended above the infeasibility gate;
  /// kIterationLimit gives up.  The default trusts the first result.
  virtual SolveStatus recheck_phase1(std::size_t& /*iterations*/) {
    return SolveStatus::kOptimal;
  }
  /// Pivots zero-valued basic artificials out where a usable column
  /// exists; false when one still carries weight (infeasible).
  virtual bool drive_out_artificials() = 0;
  /// Best-effort load of a foreign basis header; false when unusable.
  virtual bool load_basis(const Basis& b) = 0;
  /// Fresh xb_ and phase-2 reduced costs before a warm attempt; false
  /// when the representation cannot be rebuilt.
  virtual bool refresh_warm() = 0;
  /// Optimality audit of the current basis against the pristine model
  /// rows; ends in columns_dual_feasible.
  virtual bool certify_dual() = 0;

  // ---- Shared by both kernels --------------------------------------------

  const std::vector<double>& active_cost() const {
    return phase_one_ ? phase1_cost_ : cost_;
  }
  /// Both certificates' tolerance: 100x the feasibility tolerance,
  /// scaled by the magnitude of what is checked.
  double certify_tol() const { return 100.0 * opt_.feasibility_tol; }
  double current_internal_objective() const;
  bool certify(const std::vector<double>& values) const;
  /// The status half of the dual certificate: every column that can move
  /// prices dual-feasibly for its status — basic ~0, at lower >= 0, at
  /// upper <= 0 — within certify_tol() * (1 + magnitude).  `price(j)`
  /// returns column j's reduced cost against the pristine rows and the
  /// magnitude of the terms summed into it.
  template <class Price>
  bool columns_dual_feasible(Price&& price) const {
    const double dtol = certify_tol();
    for (std::size_t j = 0; j < cols_; ++j) {
      if (status_[j] != VarStatus::kBasic && upper_[j] <= 0.0) {
        continue;  // fixed column: any sign is dual feasible
      }
      const auto [dj, mag] = price(j);
      const double tol = dtol * (1.0 + mag);
      switch (status_[j]) {
        case VarStatus::kBasic:
          if (std::abs(dj) > tol) return false;
          break;
        case VarStatus::kAtLower:
          if (dj < -tol) return false;
          break;
        case VarStatus::kAtUpper:
          if (dj > tol) return false;
          break;
      }
    }
    return true;
  }
  LpSolution extract_solution(SolveStatus status,
                              std::size_t iterations) const;
  void freeze_artificials();
  bool same_basis(const Basis& b) const;
  void adopt_statuses(const Basis& b);
  /// Phase 1 (when an artificial carries weight), drive-out, phase 2.
  LpSolution cold_phases();
  /// Dual phase, closing primal phase, certificates: true iff `sol` is
  /// then a certified optimum.
  bool reoptimize(std::size_t& iterations, LpSolution& sol);

 protected:
  Impl(const Impl&) = default;

 private:
  void use_cost(bool phase_one) {
    phase_one_ = phase_one;
    price_phase();
  }
};

std::unique_ptr<SimplexSolver::Impl> make_dense_kernel(
    const Model& model, const SimplexOptions& options);
std::unique_ptr<SimplexSolver::Impl> make_sparse_kernel(
    const Model& model, const SimplexOptions& options);

}  // namespace mcs::lp
