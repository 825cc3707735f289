// Protocol-invariant auditor for simulation traces (paper §IV).
//
// Re-checks rules R1-R6 and Properties 1-4 against a finished sim::Trace.
// This is the repository's one trace oracle: the simulator tests, the
// examples, `mcs_bench fig1`, `mcs_lint trace` and the model checker's
// counterexample replay all judge traces here.  It shares no helper code
// with the simulator, so a bug in the engine's bookkeeping cannot certify
// itself through a checker built on the same assumptions.  Diagnostics use
// the MCS-P0xx rules catalogued in check/diagnostics.hpp and
// docs/LINTING.md.
#pragma once

#include "check/diagnostics.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace mcs::check {

/// Audits `trace` as a run of `protocol` over `tasks`.  Interval-level
/// rules (R2/R3/R6) apply to the interval protocols only; job lifecycle
/// and sequencing rules apply to every protocol.  Every job of a trace that
/// was not aborted must have completed; in an aborted trace unfinished jobs
/// may be legitimately mid-flight, so only the completed ones get the
/// per-job placement rules.  Empty report == every protocol invariant
/// holds.
CheckReport audit_trace(const rt::TaskSet& tasks, sim::Protocol protocol,
                        const sim::Trace& trace);

}  // namespace mcs::check
