// Two-phase primal simplex with bounded variables, plus a reusable solver
// object supporting dual-simplex warm restarts.  Two interchangeable
// kernels sit behind the same interface (SimplexOptions::kernel): a sparse
// revised simplex (CSC matrix + product-form-inverse basis, Devex pricing,
// bound-flipping dual ratio test — the default) and the original dense
// full-tableau kernel, retained as the differential-testing reference.
//
// General features supported: free variables, one- or two-sided bounds,
// <=, >=, = rows, minimization and maximization, bound-flip (nonbasic
// upper bound) pivots, and a Bland's-rule fallback for anti-cycling.
//
// Warm restarts (the branch & bound hot path): a `SimplexSolver` keeps its
// pivoted tableau alive between solves.  After `set_bounds` changes the
// variable bounds, `solve_warm` reoptimizes with the dual simplex from the
// current (or a supplied parent) basis — bound changes never disturb dual
// feasibility, so reoptimization typically takes a handful of pivots where
// a cold solve pays a full phase 1 + phase 2.  Correctness never depends on
// the warm path: the dual phase only restores primal feasibility and the
// closing primal phase proves optimality; any numerical trouble falls back
// to a cold solve from scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace mcs::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,  ///< simplex gave up; solution values are unreliable
  kNodeLimit,       ///< (MILP only) branch & bound budget exhausted
};

const char* to_string(SolveStatus status) noexcept;

/// Simplex engine selection.  Both kernels implement the identical
/// contract (cold solves, dual warm restarts, basis snapshots, bound
/// patching, primal+dual certificates); they differ only in the inner
/// representation:
///  * kSparse — revised simplex on a compressed-sparse-column matrix with a
///    product-form-inverse (eta-file) basis, Devex pricing with partial
///    pricing, and a bound-flipping dual ratio test.  Default: the delay
///    MILPs are highly sparse and the dense tableau pays O(rows*cols) per
///    pivot for matrices that are ~1% nonzero.
///  * kDense — the original full-tableau kernel, kept compiled as the
///    differential-testing reference and for pathologically dense models.
enum class SimplexKernel : std::uint8_t { kSparse, kDense };

struct SimplexOptions {
  double feasibility_tol = 1e-7;   ///< row / bound violation tolerance
  double reduced_cost_tol = 1e-9;  ///< optimality tolerance
  double pivot_tol = 1e-8;         ///< minimum admissible pivot magnitude
  SimplexKernel kernel = SimplexKernel::kSparse;
  std::size_t max_iterations = 200000;
  /// After this many pivots, switch from Dantzig to Bland's rule
  /// (guarantees finite termination under degeneracy).
  std::size_t bland_threshold = 5000;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the *model's* sense; meaningful only when kOptimal.
  double objective = 0.0;
  /// One value per model variable; meaningful only when kOptimal.
  std::vector<double> values;
  std::size_t iterations = 0;
};

/// Opaque snapshot of a simplex basis: the nonbasic status of every internal
/// column plus the basic column of each row.  Obtained from
/// `SimplexSolver::basis()` after a solve and fed to `solve_warm` to start a
/// child problem from its parent-optimal basis (branch & bound delta nodes).
struct Basis {
  std::vector<std::uint8_t> status;  ///< per internal column
  std::vector<std::uint32_t> basic;  ///< basic column per row
  bool empty() const noexcept { return basic.empty(); }
};

/// Cumulative per-solver counters (monotone over the solver's lifetime).
struct SimplexStats {
  std::size_t cold_solves = 0;
  std::size_t warm_solves = 0;
  /// Warm attempts that had to degrade to a cold solve (dual stall /
  /// iteration trouble).  Scheduled refreshes are counted as cold solves,
  /// not fallbacks.
  std::size_t warm_fallbacks = 0;
  std::size_t cold_pivots = 0;
  std::size_t warm_pivots = 0;
  /// Basis refactorizations (kSparse: eta-file rebuilds; kDense: 0).
  std::size_t refactorizations = 0;
  /// Cumulative off-diagonal eta entries appended to the basis inverse.
  std::size_t eta_nnz = 0;
  /// Nonbasic bound-to-bound moves that did not change the basis (primal
  /// entering flips plus dual long-step flips).
  std::size_t bound_flips = 0;
  /// Devex reference-framework resets (weight overflow; kDense: 0).
  std::size_t devex_resets = 0;
  /// Columns excluded from pricing scans because equal bounds (or a frozen
  /// slack/artificial) pin them; counted once per primal or dual phase.
  std::size_t fixed_cols_skipped = 0;
};

/// Reusable simplex instance bound to one model.  The model reference must
/// outlive the solver; the solver shadows the model's variable bounds (via
/// `set_bounds`) without mutating the model itself.  Constraint data,
/// right-hand sides included, is baked in at construction: a solver lives
/// for one branch & bound search, and a patched model gets a new solver.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model,
                         const SimplexOptions& options = {});
  ~SimplexSolver();
  SimplexSolver(const SimplexSolver&) = delete;
  SimplexSolver& operator=(const SimplexSolver&) = delete;

  /// Overrides the bounds of `v` for subsequent solves.  Precondition: the
  /// variable has a finite lower bound in the model and `lower` is finite
  /// with `lower <= upper` (always true for the branch & bound use case —
  /// integral variables are clamped to finite ranges at the root).
  void set_bounds(VarId v, double lower, double upper);

  /// Cold solve: rebuilds the tableau from scratch (phase 1 + phase 2).
  LpSolution solve();

  /// Warm solve: dual reoptimization from `parent` (when given and
  /// loadable) or from the solver's current basis, then a primal cleanup
  /// phase.  Equivalent to solve() up to tolerances; falls back to a cold
  /// solve automatically when the warm path stalls.
  LpSolution solve_warm(const Basis* parent = nullptr);

  /// Snapshot of the current basis (valid after any completed solve).
  Basis basis() const;

  /// Independent copy of this solver in its current state (bounds,
  /// factorization or tableau, warm-restart bookkeeping), bound to the
  /// same model; its stats start at zero.  Fed the same `set_bounds` /
  /// `solve` / `solve_warm` calls, the copy returns bit-identical
  /// solutions, so cloning after a solve stands in for repeating it on a
  /// second solver.
  std::unique_ptr<SimplexSolver> clone() const;

  const SimplexStats& stats() const noexcept;

  /// Kernel interface (internal; defined in simplex_impl.hpp).
  struct Impl;

 private:
  explicit SimplexSolver(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

/// Solves the continuous relaxation of `model` (integrality ignored).
LpSolution solve_lp(const Model& model, const SimplexOptions& options = {});

}  // namespace mcs::lp
