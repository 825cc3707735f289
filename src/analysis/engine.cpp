#include "analysis/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/milp_formulation.hpp"
#include "analysis/window.hpp"
#include "check/check.hpp"
#include "check/presolve_audit.hpp"
#include "lp/milp.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::analysis {

namespace {

using rt::Time;

namespace telemetry = support::telemetry;

/// Outcome of one delay-MILP solve (same contract as the pre-engine
/// response_time.cpp helper).
struct DelayBound {
  bool valid = false;         ///< a finite safe bound was obtained
  double delay = 0.0;         ///< upper bound on sum of interval lengths
  bool relaxation = false;    ///< dual bound used (budget exhausted)
  bool degraded = false;      ///< SolveBudget exceeded: LP dual bound used
  /// Decision mode: the stop rule paused the search, which now waits in
  /// its formulation slot; `delay` is unset and the rule kept the bracket.
  bool paused = false;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
};

/// The delay bound a finished search gives.
DelayBound delay_of(const lp::MilpResult& res) {
  DelayBound out;
  out.nodes = res.nodes;
  out.lp_iterations = res.lp_iterations;
  switch (res.status) {
    case lp::SolveStatus::kOptimal:
      out.valid = true;
      // best_bound equals the objective when optimality was proven and is
      // the safe dual bound when the search stopped at the relative gap.
      out.delay = res.best_bound;
      out.relaxation = res.gap_terminated;
      if (res.gap_terminated) {
        telemetry::count("analysis.fallbacks.gap_terminated");
      }
      break;
    case lp::SolveStatus::kNodeLimit:
      // Dual bound >= true maximum: safe.
      if (std::isfinite(res.best_bound)) {
        out.valid = true;
        out.delay = res.best_bound;
        out.relaxation = true;
        telemetry::count("analysis.fallbacks.node_limit");
      }
      break;
    case lp::SolveStatus::kInfeasible:
      // Only the empty schedule could be cut off; treat as zero delay.
      out.valid = true;
      out.delay = 0.0;
      break;
    default:
      break;  // unbounded / iteration limit: no safe bound
  }
  return out;
}

/// Decision-mode switches of one bound() call (DESIGN.md §5.15).
struct Decide {
  /// The caller's fallback flag is already true, or the caller records
  /// none: a search may pause once its round's outcome is fixed.
  bool pause_ok = false;
  /// Give the task up as soon as one of its bounds used a relaxation: the
  /// caller has already seen a miss, so nothing it records depends on the
  /// rest of this task.
  bool stop_on_relaxation = false;
};

/// What one fixpoint round does next.
enum class Step {
  kMiss,       ///< the bound crossed the deadline
  kConverged,  ///< the response stopped growing
  kNext,       ///< another round on a larger window
  kOpen,       ///< not fixed by what is known yet
};

/// Slack added on either side of a search's incumbent / dual bound so the
/// bracket covers the LP round-off of later loop tops (lp::kObjectiveRoundoff).
double roundoff(double value) {
  return lp::kObjectiveRoundoff * std::max(1.0, std::abs(value));
}

/// Everything about a task that the delay MILP depends on *except* the LS
/// flag (flags are expressed through patches, not rebuilds).  Arrival
/// curves are compared by value (ArrivalCurve::value_key), never by
/// address: a freed curve's address can be recycled for a different curve,
/// and a long-lived engine must not reuse formulations built for it.
struct TaskSig {
  Time exec = 0;
  Time copy_in = 0;
  Time copy_out = 0;
  Time period = 0;
  Time deadline = 0;
  rt::Priority priority = 0;
  std::vector<std::int64_t> arrival;  ///< value_key(); empty when unset

  bool operator==(const TaskSig&) const = default;
};

/// Debug audit hook (docs/LINTING.md): lints every formulation the engine
/// is about to solve and — for cache hits, at level 2 — rebuilds it from
/// scratch to prove the patch path produced the identical model.  Folds
/// to nothing when MCS_CHECK_LEVEL compiles to 0.
void audit_formulation(const DelayMilp& milp, const rt::TaskSet& tasks,
                       rt::TaskIndex i, Time t, FormulationCase fcase,
                       bool ignore_ls, bool patched) {
  if (!check::enabled(check::kLevelLint)) {
    return;
  }
  check::CheckReport report = lint_delay_milp(milp, tasks, i, t, fcase,
                                              ignore_ls);
  telemetry::count("check.models_audited");
  if (patched && check::enabled(check::kLevelDifferential)) {
    report.merge(
        verify_patched_equivalence(milp, tasks, i, t, fcase, ignore_ls));
    telemetry::count("check.patches_verified");
  }
  if (!report.clean()) {
    telemetry::count("check.diagnostics_emitted", report.diagnostics.size());
  }
  if (report.error_count() > 0) {
    std::string detail = "delay MILP audit failed for task " +
                         tasks[i].name + " at t=" + std::to_string(t) + ":";
    for (const check::Diagnostic& d : report.diagnostics) {
      detail += "\n  " + check::render(d);
    }
    support::contract_fail("invariant", "mcs::check formulation audit",
                           __FILE__, __LINE__, detail);
  }
}

/// Debug audit hook: every incumbent a MILP solve returns has travelled
/// through presolve, branch & bound and postsolve — re-verify it
/// against the pristine formulation model (MCS-F303/F304).  Folds to
/// nothing when MCS_CHECK_LEVEL compiles to 0.
void audit_incumbent(const lp::Model& model, const lp::MilpResult& res,
                     const rt::TaskSet& tasks, rt::TaskIndex i, Time t) {
  if (!check::enabled(check::kLevelLint) || !res.has_incumbent) {
    return;
  }
  const check::CheckReport report =
      check::audit_postsolve(model, res.values, res.objective);
  telemetry::count("check.incumbents_audited");
  if (report.error_count() > 0) {
    telemetry::count("check.diagnostics_emitted", report.diagnostics.size());
    std::string detail = "postsolved incumbent audit failed for task " +
                         tasks[i].name + " at t=" + std::to_string(t) + ":";
    for (const check::Diagnostic& d : report.diagnostics) {
      detail += "\n  " + check::render(d);
    }
    support::contract_fail("invariant", "mcs::check postsolve audit",
                           __FILE__, __LINE__, detail);
  }
}

std::vector<TaskSig> fingerprint_of(const rt::TaskSet& tasks) {
  std::vector<TaskSig> sig(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const rt::Task& t = tasks[i];
    sig[i] = TaskSig{t.exec,     t.copy_in,  t.copy_out, t.period,
                     t.deadline, t.priority,
                     t.arrival ? t.arrival->value_key()
                               : std::vector<std::int64_t>{}};
  }
  return sig;
}

/// LS marking as a bitmask (first 64 tasks; used for telemetry only, never
/// for correctness decisions).
std::uint64_t marking_mask(const rt::TaskSet& tasks) {
  std::uint64_t mask = 0;
  const std::size_t n = std::min<std::size_t>(tasks.size(), 64);
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks[i].latency_sensitive) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

/// Outer RTA iteration cap (each iteration enlarges the window).
constexpr std::size_t kMaxOuterIterations = 64;

/// Cache slots per task: the three formulation cases under LS semantics
/// plus the all-NLS (ignore_ls) case used by the WP baseline.
constexpr std::size_t kEntrySlots = 4;

std::size_t entry_slot(FormulationCase fcase, bool ignore_ls) {
  return ignore_ls ? 3 : static_cast<std::size_t>(fcase);
}

/// The WP baseline's options: the caller's, with every LS flag ignored.
AnalysisOptions wp_options(const AnalysisOptions& options) {
  AnalysisOptions wp = options;
  wp.ignore_ls = true;
  return wp;
}

rt::TaskSet scaled(const rt::TaskSet& tasks, ScalingDimension dimension,
                   double factor) {
  rt::TaskSet result = tasks;
  for (std::size_t i = 0; i < result.size(); ++i) {
    auto scale = [factor](Time value) {
      return static_cast<Time>(
          std::ceil(static_cast<double>(value) * factor));
    };
    switch (dimension) {
      case ScalingDimension::kMemoryPhases:
        result[i].copy_in = scale(result[i].copy_in);
        result[i].copy_out = scale(result[i].copy_out);
        break;
      case ScalingDimension::kExecutionTimes:
        result[i].exec = std::max<Time>(1, scale(result[i].exec));
        break;
    }
  }
  return result;
}

}  // namespace

/// One cached delay-MILP formulation: the patchable model and the
/// incumbent carried between solves.
struct FormulationEntry {
  bool valid = false;
  std::size_t num_intervals = 0;
  std::uint64_t ls_marking = 0;  ///< marking at the last build/patch
  DelayMilp milp;
  std::vector<double> incumbent;  ///< last solve's values (may be empty)
  /// Decision mode's last search of this model, paused once its round's
  /// outcome was fixed.  A patch hit finishes it before reading
  /// `incumbent`, so the carried incumbent is always exact mode's.
  std::unique_ptr<lp::MilpSearch> paused;
};

struct TaskCacheEntry {
  std::array<FormulationEntry, kEntrySlots> slots;
  bool nps_valid = false;
  NpsTaskBound nps;
};

struct AnalysisEngine::Impl {
  std::vector<TaskSig> sig;
  std::vector<TaskCacheEntry> cache;

  /// Drops every cached formulation / memo when the task-set parameters
  /// (LS flags excluded) changed since the last call.
  void sync_task_set(const rt::TaskSet& tasks) {
    std::vector<TaskSig> fresh = fingerprint_of(tasks);
    if (fresh == sig) return;
    sig = std::move(fresh);
    cache.clear();
    cache.resize(sig.size());
  }

  FormulationEntry& slot(rt::TaskIndex i, FormulationCase fcase,
                         const AnalysisOptions& options) {
    return cache[i].slots[entry_slot(fcase, options.ignore_ls)];
  }
  DelayBound solve_delay(const rt::TaskSet& tasks, rt::TaskIndex i, Time t,
                         FormulationCase fcase,
                         const AnalysisOptions& options,
                         const lp::StopRule& stop = {});
  TaskBoundResult bound(const rt::TaskSet& tasks, rt::TaskIndex i,
                        const AnalysisOptions& options,
                        const Decide* decide = nullptr);
  std::vector<TaskBoundResult> bound_all(const rt::TaskSet& tasks,
                                         const AnalysisOptions& options);
  NpsTaskBound nps(const rt::TaskSet& tasks, rt::TaskIndex i);
  WpResult marked(const rt::TaskSet& tasks, const AnalysisOptions& options);
  /// Decision mode's WP verdict: bounds in priority order and stops at the
  /// first miss, or, when `track_fallback`, once a miss and a relaxation
  /// have both been seen.  Entries after the stop stay TaskBoundResult{}.
  WpResult decide_wp(const rt::TaskSet& tasks, const AnalysisOptions& options,
                     bool track_fallback);
  /// Greedy marking; `decision` selects decision mode and whether it keeps
  /// any_relaxation_fallback exact.
  ProposedResult proposed(const rt::TaskSet& tasks,
                          const AnalysisOptions& options,
                          const WpResult* wp_round0,
                          std::optional<bool> decision = std::nullopt);
  ApproachResult dispatch(const rt::TaskSet& tasks, Approach approach,
                          const AnalysisOptions& options);
};

DelayBound AnalysisEngine::Impl::solve_delay(const rt::TaskSet& tasks,
                                             rt::TaskIndex i, Time t,
                                             FormulationCase fcase,
                                             const AnalysisOptions& options,
                                             const lp::StopRule& stop) {
  std::size_t intervals = 2;
  switch (fcase) {
    case FormulationCase::kNls:
      intervals = window_intervals_nls(tasks, i, t);
      break;
    case FormulationCase::kLsCaseA:
      intervals = window_intervals_ls(tasks, i, t);
      break;
    case FormulationCase::kLsCaseB:
      break;
  }

  FormulationEntry& e = slot(i, fcase, options);
  const std::uint64_t marking = marking_mask(tasks);
  const bool hit = e.valid && e.num_intervals == intervals;
  if (hit && e.paused) {
    // Finish the paused search on the model it was started on (it holds
    // its own copy), so the incumbent carried below is exact mode's.
    e.paused->run();
    const lp::MilpResult& res = e.paused->result();
    audit_incumbent(e.milp.model, res, tasks, i, t);
    if (res.has_incumbent) e.incumbent = res.values;
    e.paused.reset();
  }
  if (hit) {
    // The window length (budget RHS) and — for patchable formulations —
    // the LS marking (admission bounds, cancellation RHS) are the only
    // moving parts; patch them in place.
    update_delay_milp(e.milp, tasks, i, t, options.ignore_ls);
    telemetry::count("analysis.milp_cache_hits");
    telemetry::count("analysis.engine.formulation_patches");
    if (e.milp.patchable_ls && e.ls_marking != marking) {
      telemetry::count("analysis.engine.ls_delta_patches");
    }
  } else {
    e.milp = build_delay_milp(tasks, i, t, fcase, options.ignore_ls,
                              /*patchable_ls=*/!options.ignore_ls);
    e.valid = true;
    e.num_intervals = intervals;
    e.incumbent.clear();
    e.paused.reset();
    telemetry::count("analysis.milp_builds");
  }
  e.ls_marking = marking;
  audit_formulation(e.milp, tasks, i, t, fcase, options.ignore_ls,
                    /*patched=*/hit);

  DelayBound out;
  // A request whose SolveBudget ran out degrades to the LP relaxation: the
  // relaxation's optimum is a valid dual bound on the MILP (>= the true
  // worst-case delay), so the derived response-time bound stays safe —
  // merely more pessimistic (analysis/budget.hpp).
  const bool budget_exceeded =
      options.budget != nullptr && options.budget->exceeded();
  if (options.lp_relaxation_only || budget_exceeded) {
    const lp::LpSolution sol = solve_lp(e.milp.model, options.milp.lp);
    out.lp_iterations = sol.iterations;
    if (sol.status == lp::SolveStatus::kOptimal) {
      out.valid = true;
      out.delay = sol.objective;
      out.relaxation = true;
      out.degraded = budget_exceeded;
      if (budget_exceeded) {
        telemetry::count("analysis.budget_degraded_solves");
      } else {
        telemetry::count("analysis.fallbacks.lp_relaxation_only");
      }
    }
    return out;
  }

  // Solve options are re-derived from the caller's options every time (an
  // engine outlives a single call, so they may change between solves);
  // only the incumbent carries over, and only across compatible patches of
  // the same model.  Branch the Constraint 13 max-selectors first (see
  // DelayMilp::alpha_vars).
  lp::MilpOptions milp_options = options.milp;
  milp_options.branch_priority.assign(e.milp.model.num_variables(), 0);
  for (const lp::VarId alpha : e.milp.alpha_vars) {
    milp_options.branch_priority[alpha.index] = 1;
  }
  if (hit) {
    milp_options.start_values = e.incumbent;
  }
  lp::MilpSearch search(e.milp.model, milp_options);
  if (!search.run(stop)) {
    // The round's outcome is fixed; the search waits in the slot.  Its
    // bound rests on a dual bound, which the relaxation flag reports.
    e.paused = std::make_unique<lp::MilpSearch>(std::move(search));
    out.valid = true;
    out.paused = true;
    out.relaxation = true;
    return out;
  }
  const lp::MilpResult& res = search.result();
  audit_incumbent(e.milp.model, res, tasks, i, t);
  if (res.has_incumbent) {
    e.incumbent = res.values;
  }
  return delay_of(res);
}

TaskBoundResult AnalysisEngine::Impl::bound(const rt::TaskSet& tasks,
                                            rt::TaskIndex i,
                                            const AnalysisOptions& options,
                                            const Decide* decide) {
  MCS_REQUIRE(i < tasks.size(), "bound_response_time: bad task index");
  sync_task_set(tasks);
  const telemetry::ScopedTimer timer("analysis.bound_response_time");
  telemetry::count("analysis.tasks_analyzed");
  const rt::Task& task = tasks[i];
  const bool analyzed_ls = task.latency_sensitive && !options.ignore_ls;
  const FormulationCase fcase =
      analyzed_ls ? FormulationCase::kLsCaseA : FormulationCase::kNls;

  TaskBoundResult result;
  Time response = task.total_demand();  // R^(0) = l + C + u
  if (response > task.deadline) {
    result.wcrt = response;
    result.exceeded_deadline = true;
    return result;
  }

  // Case (b) for LS tasks has a fixed two-interval window independent of
  // t; its formulation lives in the per-task cache like the others, so
  // across greedy rounds it is patched, not rebuilt.
  double case_b_delay = 0.0;
  if (analyzed_ls) {
    const DelayBound b =
        solve_delay(tasks, i, 0, FormulationCase::kLsCaseB, options);
    result.milp_nodes += b.nodes;
    result.lp_iterations += b.lp_iterations;
    if (!b.valid) {
      return result;  // no safe bound obtainable
    }
    result.used_relaxation_bound |= b.relaxation;
    result.degraded |= b.degraded;
    case_b_delay = b.delay;
  }

  // The response a round's delay bound leads to (before the monotone max);
  // kTimeMax for a bound too large to tick.
  const auto response_for = [&](double delay) -> Time {
    if (!(delay < 4e18)) return rt::kTimeMax;
    return delay_to_ticks(std::max(delay, case_b_delay)) + task.copy_out;
  };
  const auto window_at = [&](Time r) {
    const Time t = r - task.exec - task.copy_out;
    return analyzed_ls ? window_intervals_ls(tasks, i, t)
                       : window_intervals_nls(tasks, i, t);
  };

  // Exact mode's response lies in [response, response_hi].  The two differ
  // only after a decision-mode search paused on a move to a larger window;
  // `pending` is that search, and finishing it pins the response.
  Time response_hi = response;
  std::unique_ptr<lp::MilpSearch> pending;
  std::vector<std::uint64_t> prev_budgets;
  double prev_ls_releases = -1.0;

  // What the round does once its delay bound is known to lead to a
  // response in [n_lo, n_hi]; kOpen unless every response in the interval
  // and every exact-mode response so far agree (DESIGN.md §5.15).
  const auto step_for = [&](Time n_lo, Time n_hi) {
    if (std::max(response, n_lo) > task.deadline) return Step::kMiss;
    if (n_hi <= response) return Step::kConverged;
    if (n_lo <= response_hi || n_hi > task.deadline) return Step::kOpen;
    if (n_lo == n_hi) return Step::kNext;
    // Budgets are monotone step functions of the window, so equal budgets
    // at both ends mean one next-window cell, hence one next MILP.  It must
    // be a fresh build (the interval count changes: no carried incumbent)
    // or this round's own cell (the next round converges unsolved).
    const Time t_lo = n_lo - task.exec - task.copy_out;
    const Time t_hi = n_hi - task.exec - task.copy_out;
    const double ls_lo = ls_release_budget(tasks, t_lo, options.ignore_ls);
    if (ls_lo != ls_release_budget(tasks, t_hi, options.ignore_ls)) {
      return Step::kOpen;
    }
    std::vector<std::uint64_t> budgets = interference_budgets(tasks, i, t_lo);
    if (budgets != interference_budgets(tasks, i, t_hi)) return Step::kOpen;
    const bool same_cell =
        budgets == prev_budgets && ls_lo == prev_ls_releases;
    return same_cell || window_at(n_lo) != window_at(response) ? Step::kNext
                                                               : Step::kOpen;
  };

  for (std::size_t iter = 0; iter < kMaxOuterIterations; ++iter) {
    ++result.outer_iterations;
    telemetry::count("analysis.fixpoint_rounds");
    const Time t = response - task.exec - task.copy_out;
    MCS_ASSERT(t >= 0, "negative delay window");
    const std::size_t window = analyzed_ls
                                   ? window_intervals_ls(tasks, i, t)
                                   : window_intervals_nls(tasks, i, t);
    telemetry::record("analysis.window_intervals",
                      static_cast<double>(window));
    // The window length enters the MILP only through the interference
    // budgets (which also fix the interval count) and the cancellation
    // budget.  If none of them moved since the previous round the MILP is
    // *identical*, so its value is too: fixpoint reached.  (Comparing the
    // budgets rather than the interval count alone is exact: the count is
    // derived from the budget sum and can mask a changed cancellation
    // budget or clamp-equal windows with different budgets.)  A response
    // interval never straddles a budget step (step_for), so its lower end
    // stands for all of it.
    std::vector<std::uint64_t> budgets = interference_budgets(tasks, i, t);
    const double ls_releases =
        ls_release_budget(tasks, t, options.ignore_ls);
    if (iter > 0 && budgets == prev_budgets &&
        ls_releases == prev_ls_releases) {
      result.wcrt = response_hi;
      result.schedulable = response_hi <= task.deadline;
      return result;
    }
    prev_budgets = std::move(budgets);
    prev_ls_releases = ls_releases;

    // Decision mode: pause the search at the first loop top whose bracket
    // [incumbent, dual bound] (widened by round-off) fixes the step.  Exact
    // mode's final bound lies in every such bracket along its own search.
    Time paused_lo = 0;
    Time paused_hi = 0;
    lp::StopRule stop;
    if (decide != nullptr &&
        (decide->pause_ok || result.used_relaxation_bound)) {
      stop = [&, memo_lo = Time{-1}, memo_hi = Time{-1},
              memo = Step::kOpen](const lp::SearchBounds& b) mutable {
        const double lo = std::isfinite(b.incumbent)
                              ? b.incumbent - roundoff(b.incumbent)
                              : 0.0;
        const Time n_lo = response_for(std::max(0.0, lo));
        const Time n_hi = response_for(b.dual_bound + roundoff(b.dual_bound));
        if (n_lo != memo_lo || n_hi != memo_hi) {
          memo_lo = n_lo;
          memo_hi = n_hi;
          memo = step_for(n_lo, n_hi);
        }
        paused_lo = n_lo;
        paused_hi = n_hi;
        return memo != Step::kOpen;
      };
    }

    const DelayBound a = solve_delay(tasks, i, t, fcase, options, stop);
    result.milp_nodes += a.nodes;
    result.lp_iterations += a.lp_iterations;
    if (!a.valid) {
      return result;
    }
    result.used_relaxation_bound |= a.relaxation;
    result.degraded |= a.degraded;
    if (decide != nullptr && decide->stop_on_relaxation &&
        result.used_relaxation_bound) {
      return result;
    }

    // The MILP value never shrinks as the window grows; keep monotone.
    const Time n_lo = a.paused ? paused_lo : response_for(a.delay);
    const Time n_hi = a.paused ? paused_hi : n_lo;
    Step step = step_for(n_lo, n_hi);
    if (step == Step::kOpen) {
      // Only a finished search gets here, with a delay that lands inside a
      // response interval: finish the search that set the interval.
      MCS_ASSERT(!a.paused && pending != nullptr,
                 "decision mode: undecided round without a pending search");
      telemetry::count("analysis.decision.pending_finished");
      pending->run();
      const DelayBound p = delay_of(pending->result());
      pending.reset();
      result.milp_nodes += p.nodes;
      result.lp_iterations += p.lp_iterations;
      if (!p.valid) {
        return result;  // exact mode stopped at that round: no safe bound
      }
      response = response_hi = response_for(p.delay);
      step = step_for(n_lo, n_hi);
    }
    switch (step) {
      case Step::kMiss:
        result.wcrt = std::max(response_hi, n_hi);
        result.exceeded_deadline = true;
        return result;
      case Step::kConverged:
        result.wcrt = response_hi;
        result.schedulable = true;
        return result;
      case Step::kNext:
        break;
      case Step::kOpen:
        MCS_ASSERT(false, "decision mode: exact round left undecided");
    }
    // A paused search moving to a new interval count is dropped by the
    // next round's rebuild: keep it, in case that round needs the exact
    // response.  Otherwise it stays in its slot for a later patch hit.
    pending.reset();
    if (a.paused && n_lo != n_hi && window_at(n_lo) != window) {
      pending = std::move(slot(i, fcase, options).paused);
    }
    response = n_lo;
    response_hi = n_hi;
  }
  // Iteration cap hit without convergence: no safe claim below deadline.
  result.wcrt = rt::kTimeMax;
  return result;
}

std::vector<TaskBoundResult> AnalysisEngine::Impl::bound_all(
    const rt::TaskSet& tasks, const AnalysisOptions& options) {
  std::vector<TaskBoundResult> results(tasks.size());
  for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    results[i] = bound(tasks, i, options);
  }
  return results;
}

NpsTaskBound AnalysisEngine::Impl::nps(const rt::TaskSet& tasks,
                                       rt::TaskIndex i) {
  MCS_REQUIRE(i < tasks.size(), "nps_bound: bad task index");
  sync_task_set(tasks);
  TaskCacheEntry& entry = cache[i];
  if (entry.nps_valid) {
    telemetry::count("analysis.engine.nps_memo_hits");
    return entry.nps;
  }
  // The NPS analysis is independent of the LS flags, so the memo survives
  // greedy marking rounds (the fingerprint excludes flags by design).
  entry.nps = analysis::nps_bound(tasks, i);
  entry.nps_valid = true;
  return entry.nps;
}

WpResult AnalysisEngine::Impl::marked(const rt::TaskSet& tasks,
                                      const AnalysisOptions& options) {
  WpResult result;
  result.per_task = bound_all(tasks, options);
  result.schedulable = true;
  for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
    const TaskBoundResult& bound = result.per_task[i];
    result.any_relaxation_fallback |= bound.used_relaxation_bound;
    result.degraded |= bound.degraded;
    result.total_milp_nodes += bound.milp_nodes;
    if (!bound.schedulable) {
      result.schedulable = false;
    }
  }
  return result;
}

ProposedResult AnalysisEngine::Impl::proposed(const rt::TaskSet& tasks,
                                              const AnalysisOptions& options,
                                              const WpResult* wp_round0,
                                              std::optional<bool> decision) {
  MCS_REQUIRE(!options.ignore_ls,
              "analyze_proposed: ignore_ls belongs to the WP baseline");
  const std::size_t n = tasks.size();
  ProposedResult result;
  result.ls_flags.assign(n, false);

  rt::TaskSet working = tasks;
  for (rt::TaskIndex i = 0; i < working.size(); ++i) {
    working[i].latency_sensitive = false;  // paper: start all-NLS
  }
  const std::vector<rt::TaskIndex> order = working.by_priority();

  // One greedy round (paper §VI): bounds tasks in priority order with
  // `bound_of` and stops at the first miss — the bounds after it would be
  // discarded, and the lower-priority tasks have the widest windows, so
  // they are the most expensive to bound.  Entries after the miss stay
  // TaskBoundResult{}.  Returns the failing task, if any.
  const auto run_round =
      [&](const auto& bound_of) -> std::optional<rt::TaskIndex> {
    ++result.rounds;
    result.per_task.assign(n, TaskBoundResult{});
    for (const rt::TaskIndex i : order) {
      const TaskBoundResult& b = result.per_task[i] = bound_of(i);
      result.any_relaxation_fallback |= b.used_relaxation_bound;
      result.degraded |= b.degraded;
      result.total_milp_nodes += b.milp_nodes;
      if (!b.schedulable) return i;
    }
    return std::nullopt;
  };

  std::size_t round = 0;
  if (wp_round0 != nullptr) {
    MCS_REQUIRE(wp_round0->per_task.size() == n,
                "analyze_proposed: wp_round0 from a different task set");
    // Round 0 analyzes the all-NLS marking, whose formulation coincides
    // with the WP one (no LS task -> no LE/CL columns, zero cancellation
    // budget), so the caller's WP verdicts stand in for it verbatim.
    telemetry::count("analysis.engine.round0_injections");
    const std::optional<rt::TaskIndex> failing = run_round(
        [&](rt::TaskIndex i) { return wp_round0->per_task[i]; });
    if (!failing) {
      result.schedulable = true;  // ls_flags stay all-false
      return result;
    }
    working[*failing].latency_sensitive = true;
    round = 1;
  }

  const auto bound_task = [&](rt::TaskIndex i) {
    if (!decision) return bound(working, i, options);
    // A search may pause once the flag the caller records is settled.
    const Decide decide{!*decision || result.any_relaxation_fallback, false};
    return bound(working, i, options, &decide);
  };

  // At most one promotion per round and at most n rounds.
  for (; round <= n; ++round) {
    const std::optional<rt::TaskIndex> failing = run_round(bound_task);
    if (!failing) {
      result.schedulable = true;
      for (rt::TaskIndex i = 0; i < working.size(); ++i) {
        result.ls_flags[i] = working[i].latency_sensitive;
      }
      return result;
    }
    if (working[*failing].latency_sensitive) {
      // Already LS and still missing: unschedulable (paper §VI).
      return result;
    }
    working[*failing].latency_sensitive = true;
  }
  return result;  // defensive: cannot be reached (n+1 rounds, n promotions)
}

WpResult AnalysisEngine::Impl::decide_wp(const rt::TaskSet& tasks,
                                         const AnalysisOptions& options,
                                         bool track_fallback) {
  const AnalysisOptions wp = wp_options(options);
  WpResult result;
  result.schedulable = true;
  result.per_task.assign(tasks.size(), TaskBoundResult{});
  for (const rt::TaskIndex i : tasks.by_priority()) {
    const Decide decide{!track_fallback || result.any_relaxation_fallback,
                        !result.schedulable};
    const TaskBoundResult& b = result.per_task[i] = bound(tasks, i, wp,
                                                          &decide);
    result.any_relaxation_fallback |= b.used_relaxation_bound;
    result.degraded |= b.degraded;
    result.total_milp_nodes += b.milp_nodes;
    result.schedulable = result.schedulable && b.schedulable;
    if (!result.schedulable &&
        (!track_fallback || result.any_relaxation_fallback)) {
      break;
    }
  }
  return result;
}

ApproachResult AnalysisEngine::Impl::dispatch(const rt::TaskSet& tasks,
                                              Approach approach,
                                              const AnalysisOptions& options) {
  ApproachResult result;
  result.wcrt.assign(tasks.size(), rt::kTimeMax);
  result.ls_flags.assign(tasks.size(), false);

  switch (approach) {
    case Approach::kProposed: {
      const ProposedResult r = proposed(tasks, options, nullptr);
      result.schedulable = r.schedulable;
      result.ls_flags = r.ls_flags;
      result.any_relaxation_fallback = r.any_relaxation_fallback;
      result.degraded = r.degraded;
      for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
        result.wcrt[i] = r.per_task[i].wcrt;
      }
      break;
    }
    case Approach::kWasilyPellizzoni: {
      const WpResult r = marked(tasks, wp_options(options));
      result.schedulable = r.schedulable;
      result.any_relaxation_fallback = r.any_relaxation_fallback;
      result.degraded = r.degraded;
      for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
        result.wcrt[i] = r.per_task[i].wcrt;
      }
      break;
    }
    case Approach::kNonPreemptive: {
      result.schedulable = true;
      for (rt::TaskIndex i = 0; i < tasks.size(); ++i) {
        const NpsTaskBound bound = nps(tasks, i);
        result.wcrt[i] = bound.wcrt;
        result.schedulable = result.schedulable && bound.schedulable;
      }
      break;
    }
  }
  return result;
}

AnalysisEngine::AnalysisEngine(const EngineConfig& config)
    : impl_(std::make_unique<Impl>()) {
  MCS_REQUIRE(config.threads == 1, "EngineConfig::threads must be 1");
}

AnalysisEngine::~AnalysisEngine() = default;

TaskBoundResult AnalysisEngine::bound_response_time(
    const rt::TaskSet& tasks, rt::TaskIndex i,
    const AnalysisOptions& options) {
  return impl_->bound(tasks, i, options);
}

NpsTaskBound AnalysisEngine::nps_bound(const rt::TaskSet& tasks,
                                       rt::TaskIndex i) {
  return impl_->nps(tasks, i);
}

WpResult AnalysisEngine::analyze_wp(const rt::TaskSet& tasks,
                                    const AnalysisOptions& options) {
  return impl_->marked(tasks, wp_options(options));
}

WpResult AnalysisEngine::analyze_marked(const rt::TaskSet& tasks,
                                        const AnalysisOptions& options) {
  return impl_->marked(tasks, options);
}

ProposedResult AnalysisEngine::analyze_proposed(const rt::TaskSet& tasks,
                                                const AnalysisOptions& options,
                                                const WpResult* wp_round0) {
  return impl_->proposed(tasks, options, wp_round0);
}

ApproachResult AnalysisEngine::analyze(const rt::TaskSet& tasks,
                                       Approach approach,
                                       const AnalysisOptions& options) {
  return impl_->dispatch(tasks, approach, options);
}

namespace {

Decision decision_of(bool schedulable, bool fallback,
                     std::vector<bool> ls_flags,
                     const std::vector<TaskBoundResult>& per_task) {
  Decision d;
  d.schedulable = schedulable;
  d.any_relaxation_fallback = fallback;
  d.ls_flags = std::move(ls_flags);
  for (const TaskBoundResult& b : per_task) d.wcrt.push_back(b.wcrt);
  return d;
}

}  // namespace

SweepDecision AnalysisEngine::decide(const rt::TaskSet& tasks,
                                     const AnalysisOptions& options) {
  const std::vector<bool> all_nls(tasks.size(), false);
  const WpResult wp = impl_->decide_wp(tasks, options, true);
  SweepDecision d;
  d.wp = decision_of(wp.schedulable, wp.any_relaxation_fallback, all_nls,
                     wp.per_task);
  if (wp.schedulable) {
    // Greedy round 0 is the WP analysis; when it succeeds its verdict is
    // the proposed one, relaxation fallbacks included.
    d.proposed = d.wp;
    return d;
  }
  const ProposedResult prop = impl_->proposed(tasks, options, &wp, true);
  d.proposed = decision_of(prop.schedulable, prop.any_relaxation_fallback,
                           prop.ls_flags, prop.per_task);
  return d;
}

Decision AnalysisEngine::decide(const rt::TaskSet& tasks, Approach approach,
                                const AnalysisOptions& options) {
  MCS_REQUIRE(approach != Approach::kNonPreemptive,
              "decide: NPS has no MILP to stop early; use analyze");
  if (approach == Approach::kWasilyPellizzoni) {
    const WpResult wp = impl_->decide_wp(tasks, options, false);
    return decision_of(wp.schedulable, wp.any_relaxation_fallback,
                       std::vector<bool>(tasks.size(), false), wp.per_task);
  }
  const ProposedResult prop = impl_->proposed(tasks, options, nullptr, false);
  return decision_of(prop.schedulable, prop.any_relaxation_fallback,
                     prop.ls_flags, prop.per_task);
}

bool AnalysisEngine::decide_task(const rt::TaskSet& tasks, rt::TaskIndex i,
                                 Approach approach,
                                 const AnalysisOptions& options) {
  MCS_REQUIRE(approach != Approach::kNonPreemptive,
              "decide_task: NPS has no MILP to stop early; use nps_bound");
  const Decide decide{true, false};
  return impl_
      ->bound(tasks, i,
              approach == Approach::kWasilyPellizzoni ? wp_options(options)
                                                      : options,
              &decide)
      .schedulable;
}

OpaResult AnalysisEngine::audsley_assign(const rt::TaskSet& tasks,
                                         Approach approach,
                                         const AnalysisOptions& options) {
  const auto test = [this, approach, &options](const rt::TaskSet& set,
                                               rt::TaskIndex i) {
    switch (approach) {
      case Approach::kNonPreemptive:
        return impl_->nps(set, i).schedulable;
      case Approach::kWasilyPellizzoni:
        return impl_->bound(set, i, wp_options(options)).schedulable;
      case Approach::kProposed:
        return impl_->bound(set, i, options).schedulable;
    }
    return false;
  };
  return analysis::audsley_assign(tasks, test);
}

SensitivityResult AnalysisEngine::max_scaling_factor(
    const rt::TaskSet& tasks, Approach approach, ScalingDimension dimension,
    const SensitivityOptions& options) {
  MCS_REQUIRE(options.tolerance > 0.0, "sensitivity: bad tolerance");
  MCS_REQUIRE(options.upper_limit >= 1.0, "sensitivity: bad upper limit");

  SensitivityResult result;
  const auto schedulable = [&](double factor) {
    ++result.analysis_runs;
    return impl_
        ->dispatch(scaled(tasks, dimension, factor), approach,
                   options.analysis)
        .schedulable;
  };

  if (!schedulable(1.0)) {
    result.min_failing_factor = 1.0;
    return result;
  }

  // Grow the bracket geometrically until failure (or the limit).
  double lo = 1.0;
  double hi = 2.0;
  while (hi <= options.upper_limit && schedulable(hi)) {
    lo = hi;
    hi *= 2.0;
  }
  if (hi > options.upper_limit) {
    // Never failed within the limit: report the limit as schedulable-up-to.
    result.max_factor = lo;
    result.min_failing_factor = hi;
    return result;
  }

  // Binary search on [lo, hi): lo schedulable, hi failing.
  while (hi - lo > options.tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (schedulable(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.max_factor = lo;
  result.min_failing_factor = hi;
  return result;
}

}  // namespace mcs::analysis
