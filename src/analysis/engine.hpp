// AnalysisEngine: a reentrant session layer over the schedulability stack.
//
// The paper's pipeline is intrinsically repetitive — the RTA fixpoint (§V /
// §VI) re-solves near-identical delay MILPs round after round, the greedy
// LS-marking loop re-analyzes the task set after every promotion, and the
// evaluation sweeps (§VII) analyze each task set three ways.  The free
// functions in response_time.hpp / greedy.hpp / schedulability.hpp throw
// all analysis state away between calls; an AnalysisEngine instead carries
// it across calls for as long as the task-set *parameters* (everything
// except the LS flags) stay the same:
//
//  * a per-(task, formulation case) DelayMilp cache whose models are built
//    marking-agnostically (build_delay_milp patchable_ls) so they survive
//    greedy LS-promotion rounds as bound/rhs patches instead of rebuilds;
//  * carried incumbents, so each branch & bound starts pruning from the
//    previous round's solution;
//  * memoized NPS bounds.
//
// No solver state is carried: each delay MILP is solved from scratch by
// lp::solve_milp on the cached, patched model.  Presolve reshapes the
// reduced model almost every round, so a retained solver would rarely be
// reusable.
//
// An engine is serial: every pass bounds its tasks one after another on
// this engine's caches.  Greedy rounds stop at the first deadline miss
// (paper §VI).
//
// Determinism: each solve depends only on the patched model, the options
// and the carried incumbent.  Results are independent of the state the
// engine carried in, but only at relative_gap = 0, where every MILP is
// solved to proven optimality.  At a nonzero gap a carried incumbent can
// change where branch & bound stops, so a bound can differ from a fresh
// engine's by up to the gap.
//
// The legacy free functions remain as thin wrappers that construct a
// throwaway engine, so existing call sites and tests are unaffected.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/greedy.hpp"
#include "analysis/nps.hpp"
#include "analysis/opa.hpp"
#include "analysis/response_time.hpp"
#include "analysis/schedulability.hpp"
#include "analysis/sensitivity.hpp"
#include "rt/task.hpp"

namespace mcs::analysis {

/// Decision mode's answer for one approach (DESIGN.md §5.15): the verdict,
/// the fallback flag and the LS marking, each equal to exact mode's, plus
/// a safe upper bound on each WCRT.
struct Decision {
  bool schedulable = false;
  /// Exact mode's any_relaxation_fallback.  Only decide(tasks, options)
  /// keeps it; the one-approach decide() records no flag and may report
  /// either value.
  bool any_relaxation_fallback = false;
  /// LS marking the greedy algorithm chose (all false for WP).
  std::vector<bool> ls_flags;
  /// Per task, >= exact mode's WCRT bound; kTimeMax where no bound below
  /// the deadline was established or the pass stopped before the task.
  std::vector<rt::Time> wcrt;
};

/// The two verdicts a Figure-2 sweep unit records besides NPS.
struct SweepDecision {
  Decision wp;
  Decision proposed;
};

struct EngineConfig {
  /// Must be 1; kept so existing callers compile.  The constructor rejects
  /// any other value with a ContractViolation.
  std::size_t threads = 1;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(const EngineConfig& config = {});
  ~AnalysisEngine();
  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Engine-backed equivalents of the free functions of the same names.
  /// Each call first fingerprints `tasks` (all parameters except the LS
  /// flags): an unchanged fingerprint reuses the cached formulations and
  /// solver sessions, a changed one drops them.
  TaskBoundResult bound_response_time(const rt::TaskSet& tasks,
                                      rt::TaskIndex i,
                                      const AnalysisOptions& options = {});
  NpsTaskBound nps_bound(const rt::TaskSet& tasks, rt::TaskIndex i);
  WpResult analyze_wp(const rt::TaskSet& tasks,
                      const AnalysisOptions& options = {});

  /// Bounds every task under its *current* LS marking, with no greedy
  /// reassignment (analyze_proposed would re-mark the set): the WpResult
  /// digest of one bound_all pass over `tasks` as given.  This is the bound
  /// extraction the model checker (mcs::verify) uses for its
  /// analysis-soundness cross-check, where the explored marking must match
  /// the analyzed one exactly; options.ignore_ls selects the WP baseline
  /// formulation instead.
  WpResult analyze_marked(const rt::TaskSet& tasks,
                          const AnalysisOptions& options = {});

  /// Greedy LS marking (paper §VI).  Each round bounds tasks in priority
  /// order and stops at the first miss; per_task entries after it stay
  /// TaskBoundResult{}.  When `wp_round0` is given it must be
  /// the WP analysis of this same `tasks` under compatible options; the
  /// greedy loop then adopts it as its round 0 instead of recomputing —
  /// sound because round 0 analyzes the all-NLS marking, whose formulation
  /// coincides with the WP one — and the sweep harness stops duplicating
  /// that policy inline.  Round 0 reads `wp_round0->per_task` only along
  /// priority order up to its first miss, so the entries after that miss
  /// may be TaskBoundResult{}: a caller that needs only the WP verdict can
  /// hand over the prefix of a pass that stopped early.
  ProposedResult analyze_proposed(const rt::TaskSet& tasks,
                                  const AnalysisOptions& options = {},
                                  const WpResult* wp_round0 = nullptr);

  ApproachResult analyze(const rt::TaskSet& tasks, Approach approach,
                         const AnalysisOptions& options = {});

  /// Decision mode (DESIGN.md §5.15): verdicts only.  Every fixpoint round
  /// still runs, but its branch & bound pauses as soon as the round's
  /// outcome (a miss, convergence, or the next window) is the same for
  /// every delay between the incumbent and the dual bound, so exact mode
  /// would reach it too.  Exact-mode WCRTs need analyze_*.
  ///
  /// The Figure-2 unit: WP bounded in priority order until a miss and a
  /// relaxation have both been seen, then greedy marking from the WP
  /// prefix as round 0 (or the WP verdict itself when WP succeeds).  Both
  /// fallback flags equal exact mode's: a search pauses only once the flag
  /// it feeds is already true.
  SweepDecision decide(const rt::TaskSet& tasks,
                       const AnalysisOptions& options = {});
  /// One approach's verdict and LS marking, without a fallback flag, so
  /// searches pause freely.  kWasilyPellizzoni stops at the first miss;
  /// kProposed runs greedy marking from scratch, as analyze_proposed
  /// without wp_round0 does.  Not for kNonPreemptive (no MILP).
  Decision decide(const rt::TaskSet& tasks, Approach approach,
                  const AnalysisOptions& options = {});
  /// One task's verdict under the current priorities and, for kProposed,
  /// the current LS marking: the test audsley_assign runs.  Not for
  /// kNonPreemptive.
  bool decide_task(const rt::TaskSet& tasks, rt::TaskIndex i,
                   Approach approach, const AnalysisOptions& options = {});
  OpaResult audsley_assign(const rt::TaskSet& tasks, Approach approach,
                           const AnalysisOptions& options = {});

  /// Sensitivity search (Figure 2(e) axis): each probe is a plain
  /// analyze() of the scaled task set on this engine.
  SensitivityResult max_scaling_factor(const rt::TaskSet& tasks,
                                       Approach approach,
                                       ScalingDimension dimension,
                                       const SensitivityOptions& options = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcs::analysis
