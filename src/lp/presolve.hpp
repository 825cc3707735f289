// MILP presolve: a reduction pipeline run before branch & bound.
//
// The delay MILPs of the analysis layer carry structure a solver can
// eliminate before the first pivot: placement binaries pinned by bounds
// (LS-marking patches fix whole column families to zero), cardinality rows
// that collapse to singletons once their columns are pinned, interference
// budgets that are slack or zero, and big-M coefficients far above what
// the surviving columns can activate.  `presolve()` applies the classic
// reductions —
//
//   * fixed-column substitution (lower == upper),
//   * singleton-row elimination into variable bounds,
//   * activity-based redundant / forcing row detection,
//   * activity-based bound tightening,
//   * big-M coefficient strengthening on <= rows over 0/1 columns,
//   * duplicate / dominated row removal,
//
// to a fixpoint and emits a reduced `Model` plus the exact postsolve map
// (postsolve.hpp) back to the original space.
//
// Exactness contract: every reduction preserves the set of feasible
// *integer* points (projected onto the surviving columns) and the
// objective value of every such point — the reduced model's MILP optimum
// equals the original's exactly, though its LP relaxation may be strictly
// tighter.  Every reduction is logged; the mcs::check MCS-F3xx rules audit
// the log, the map, and postsolved solutions against the pristine model.
//
// Telemetry (when enabled): lp.presolve.runs, lp.presolve.rows_removed,
// lp.presolve.cols_removed, lp.presolve.bounds_tightened,
// lp.presolve.coefficients_tightened, lp.presolve.rows_scaled,
// lp.presolve.cols_scaled, lp.presolve.infeasible.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/model.hpp"
#include "lp/postsolve.hpp"

namespace mcs::lp::presolve {

struct PresolveOptions {
  /// Comparison tolerance for redundancy / forcing / infeasibility tests.
  /// Kept far below one tick: the analysis models are integral, so true
  /// slack is >= 1 and true violations are >= 1 — the tolerance only
  /// absorbs floating-point summation noise.
  double feasibility_tol = 1e-9;
  /// Reduction rounds before giving up on reaching a fixpoint.
  std::size_t max_rounds = 16;
  /// Geometric-mean row/column equilibration of the reduced model.  Scale
  /// factors are powers of two (exact in floating point, so the scaled
  /// model is a reparametrization, not an approximation) and are carried
  /// in the PostsolveMap; integral columns and their bounds are never
  /// scaled, so branching and integrality are untouched.  Mixed-magnitude
  /// rows (unit placement coefficients next to big-M delay terms) are what
  /// the sparse kernel's relative tolerances struggle with most;
  /// equilibration narrows that spread before the first pivot.
  bool equilibrate = true;
};

enum class ReductionKind {
  kFixedColumn,           ///< column fixed (lower == upper) and substituted
  kSingletonRow,          ///< one-term row folded into a variable bound
  kRedundantRow,          ///< row implied by the column bounds alone
  kForcingRow,            ///< row satisfiable only at one bound vector
  kDuplicateRow,          ///< row dominated by an identical-coefficient row
  kBoundTightened,        ///< variable bound tightened from a row's activity
  kCoefficientTightened,  ///< big-M style coefficient strengthening
};

const char* to_string(ReductionKind kind) noexcept;

/// One log entry per reduction applied (MCS-F301 audits the totals).
struct Reduction {
  ReductionKind kind{};
  /// Original column index (kFixedColumn / kBoundTightened) or original
  /// row index (all row reductions / kCoefficientTightened).
  std::size_t index = 0;
  /// Fixed value, new bound, or new coefficient; 0 when not applicable.
  double value = 0.0;
  /// kDuplicateRow: the surviving row; kCoefficientTightened /
  /// kBoundTightened: the column involved; otherwise kRemoved.
  std::size_t aux = kRemoved;
};

struct PresolveStats {
  std::size_t rows_removed = 0;
  std::size_t cols_removed = 0;
  std::size_t bounds_tightened = 0;
  std::size_t coefficients_tightened = 0;
  std::size_t rounds = 0;
  /// Rows / continuous columns whose equilibration scale ended up != 1.
  std::size_t rows_scaled = 0;
  std::size_t cols_scaled = 0;
};

struct Presolved {
  /// Presolve proved the model infeasible; `reduced` is then empty and the
  /// map covers only the dimensions (no column survives).
  bool infeasible = false;
  Model reduced;
  PostsolveMap map;
  std::vector<Reduction> log;
  PresolveStats stats;
};

/// Runs the reduction pipeline on `model` (not modified).  Deterministic
/// for a fixed model and options.
Presolved presolve(const Model& model, const PresolveOptions& options = {});

}  // namespace mcs::lp::presolve
