// Internal interface between SimplexSolver's public facade and its two
// interchangeable kernels (simplex.cpp: dense tableau; simplex_sparse.cpp:
// revised simplex with a PFI basis).  Not installed; include only from
// lp/*.cpp.
//
// Both kernels share one internal column space so a Basis snapshot taken
// from either kernel indexes columns identically:
//   [0, structural)               shifted / split model-variable columns
//   [structural, structural+rows) one slack per row
//   [structural+rows, total)      one artificial per row
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// The model-variable part of the internal column space, identical for both
/// kernels (and therefore for Basis snapshots).
struct ColumnLayout {
  std::vector<ColumnMap> col_map;                  ///< size structural
  std::vector<std::vector<std::size_t>> var_cols;  ///< model var -> columns
  std::vector<double> upper;                       ///< size structural
};

ColumnLayout build_column_layout(const Model& model);

/// Kernel interface.  The facade (SimplexSolver) owns the orchestration
/// that must be kernel-independent — warm/cold bookkeeping, the scheduled
/// warm-refresh hygiene restart, stats and telemetry — and dispatches the
/// actual linear algebra here.
struct SimplexSolver::Impl {
  const Model& model_;
  SimplexOptions opt_;
  std::size_t warm_since_cold_ = 0;
  SimplexStats stats_;

  Impl(const Model& model, const SimplexOptions& options)
      : model_(model), opt_(options) {}
  virtual ~Impl() = default;
  Impl& operator=(const Impl&) = delete;

  /// Independent copy in the same state, bound to the same model, with its
  /// stats at zero.  Fed the same calls, the copy returns bit-identical
  /// results (SimplexSolver::clone).
  virtual std::unique_ptr<Impl> clone() const = 0;
  virtual void set_bounds(std::size_t var, double lower, double upper) = 0;
  /// True when a warm restart has state to start from.
  virtual bool valid() const = 0;
  virtual std::size_t num_rows() const = 0;
  /// Full cold solve from the current bound/rhs state.
  virtual LpSolution run_cold() = 0;
  /// One warm attempt: load/adopt `parent` when given, dual reoptimize,
  /// close with a primal phase, certify.  Always sets `sol.iterations` to
  /// the pivots consumed; returns true iff `sol` is a certified optimum
  /// (anything else sends the facade to the authoritative cold fallback).
  virtual bool warm_attempt(const Basis* parent, LpSolution& sol) = 0;
  virtual Basis snapshot() const = 0;

  /// Pivot budget for one warm attempt (dual + closing primal), scaled to
  /// the row count.  A healthy warm restart takes a handful of pivots; one
  /// that does not is cheaper to abandon for a cold solve than to grind
  /// out.
  std::size_t warm_budget() const { return 4 * num_rows() + 100; }

 protected:
  /// For the kernels' clone(): copies everything but the stats.
  Impl(const Impl& other)
      : model_(other.model_),
        opt_(other.opt_),
        warm_since_cold_(other.warm_since_cold_) {}
};

/// Impl::clone for a kernel: a memberwise copy (stats zeroed by Impl's
/// copy constructor) whose `active_cost_`, a pointer at one of the
/// kernel's own cost rows, is moved onto the copy's row.  A copied pointer
/// would point into the original: it could dangle, and the sparse kernel's
/// `active_cost_ == &cost_` test, which decides whether its reduced costs
/// can be trusted, would fail on the copy.
template <class Kernel>
std::unique_ptr<SimplexSolver::Impl> clone_kernel(const Kernel& kernel) {
  auto copy = std::make_unique<Kernel>(kernel);
  if (kernel.active_cost_ == &kernel.cost_) {
    copy->active_cost_ = &copy->cost_;
  } else if (kernel.active_cost_ == &kernel.phase1_cost_) {
    copy->active_cost_ = &copy->phase1_cost_;
  }
  return copy;
}

std::unique_ptr<SimplexSolver::Impl> make_dense_kernel(
    const Model& model, const SimplexOptions& options);
std::unique_ptr<SimplexSolver::Impl> make_sparse_kernel(
    const Model& model, const SimplexOptions& options);

}  // namespace mcs::lp
