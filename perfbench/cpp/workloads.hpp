// The three workloads.  Each one runs its timed passes with telemetry off,
// checks its outputs, and returns the end-to-end metrics — or, with
// RunConfig::trace, the per-layer metrics of an additional traced pass.
#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_fig2c_sweep(const RunConfig& config);
RunResult run_cli_analyze(const RunConfig& config);
RunResult run_admit_session(const RunConfig& config);

}  // namespace perfbench
