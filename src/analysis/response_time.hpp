// Iterative worst-case response-time analysis (paper §V / §VI).
//
// For a task tau_i, the analysis starts from the minimum possible response
// R = l_i + C_i + u_i, derives the delay-window length t = R - C_i - u_i,
// solves the delay-maximization MILP (milp_formulation.hpp) to obtain a new
// tentative response R' = objective + u_i, and iterates until the window
// size stabilizes (the MILP value is a step function of t, so equal window
// sizes imply a fixpoint) or the deadline is exceeded.
//
// Safety under solver budgets: when branch & bound exhausts its node budget
// the LP *dual bound* is used instead of the incumbent — an upper bound on
// the true optimum, so the response-time bound stays safe (merely more
// pessimistic).  `used_relaxation_bound` reports when this happened.
#pragma once

#include <cstddef>

#include "analysis/budget.hpp"
#include "lp/milp.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"

namespace mcs::analysis {

struct AnalysisOptions {
  lp::MilpOptions milp;
  /// Solve only the LP relaxation (fast, safe, more pessimistic).
  bool lp_relaxation_only = false;
  /// Optional per-request degradation budget (non-owning; the caller keeps
  /// it alive across the call).  Once exceeded, every subsequent delay-MILP
  /// solve uses the LP relaxation dual bound instead of branch & bound —
  /// safe but more pessimistic — and the result is tagged `degraded`.  See
  /// analysis/budget.hpp for the safety/determinism contract.
  const SolveBudget* budget = nullptr;
  /// Treat every task as NLS — the analysis of the protocol of [3]
  /// (DESIGN.md §5.3).
  bool ignore_ls = false;

  AnalysisOptions() {
    // Analysis MILPs are small; a modest node budget keeps worst cases
    // bounded while virtually never triggering the relaxation fallback.
    milp.max_nodes = 20000;
    // Accept delay bounds within 0.5% of the proven optimum: the bound used
    // is the dual bound (safe), and proving the last fraction of a percent
    // is where branch & bound spends almost all of its time on the larger
    // windows.
    milp.relative_gap = 0.005;
  }
};

struct TaskBoundResult {
  /// Upper bound on the WCRT in ticks; kTimeMax when no bound below the
  /// deadline was established.
  rt::Time wcrt = rt::kTimeMax;
  bool schedulable = false;
  /// True when iteration stopped because the bound crossed the deadline.
  bool exceeded_deadline = false;
  /// True when any MILP fell back to its dual (relaxation) bound.
  bool used_relaxation_bound = false;
  /// True when any solve degraded to the LP relaxation because the
  /// request's SolveBudget was exceeded (implies used_relaxation_bound).
  bool degraded = false;
  std::size_t outer_iterations = 0;
  std::size_t milp_nodes = 0;
  std::size_t lp_iterations = 0;
};

/// Bounds the WCRT of `tasks[i]` under the proposed protocol (or, with
/// options.ignore_ls, under the protocol of [3]).  The task's
/// latency_sensitive flag selects between the NLS formulation and the LS
/// case (a)/(b) pair.
TaskBoundResult bound_response_time(const rt::TaskSet& tasks,
                                    rt::TaskIndex i,
                                    const AnalysisOptions& options = {});

/// Maps a (double) delay bound from the MILP onto integer ticks.  Rounds
/// *up* (DESIGN.md §5.1: bounds must never shrink when discretized): the
/// result is always >= `delay`.  Exposed for the regression tests guarding
/// that invariant.
rt::Time delay_to_ticks(double delay);

}  // namespace mcs::analysis
