// Central sweep-spec registry: every sweep the bench layer can run, keyed
// by name.  The mcs_bench multi-tool binary resolves its first argument
// here; merge/resume use the registry to rebuild the spec a JSONL log was
// written against (the log header's fingerprint is then verified against
// the rebuilt spec, so a stale or edited registry is caught, not silently
// aggregated).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep_runner.hpp"

namespace mcs::exp {

struct SweepEntry {
  std::string name;         ///< CLI name and log/CSV file stem
  std::string description;  ///< one-liner for `mcs_bench list`
  /// Builds the spec with apply_env_overrides applied.  Called at run/merge
  /// time so MCS_TASKSETS / MCS_SEED set for that run take effect.
  SweepSpec (*make)() = nullptr;
};

/// Applies the MCS_TASKSETS (slots per point, >= 1) and MCS_SEED
/// environment overrides — lets users scale sweeps up or down without
/// recompiling.  A set but malformed value throws ContractViolation.  The
/// thread count is not part of a spec: mcs_bench reads MCS_THREADS itself.
void apply_env_overrides(SweepSpec& spec);

/// All registered sweeps: fig2a..fig2f plus the LS-marking and
/// priority-assignment ablations.
const std::vector<SweepEntry>& sweep_registry();

/// Registry lookup; nullptr when `name` is not a registered sweep.
const SweepEntry* find_sweep(std::string_view name);

}  // namespace mcs::exp
