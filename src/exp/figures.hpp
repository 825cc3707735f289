// Canonical configurations for the Figure 2 reproduction (DESIGN.md §4).
//
// The paper's figure captions (exact n / gamma / beta per inset) are not in
// the available text; these configurations are chosen to be consistent with
// every fact §VII does state: insets (a)-(d) sweep U, (e) sweeps gamma, (f)
// sweeps beta; gamma = 0.1 in (a)/(b); U = 0.8 and U = 0.6 are meaningful
// points of (a) and (c).  EXPERIMENTS.md records what was measured.
#pragma once

#include <vector>

#include "exp/experiment.hpp"

namespace mcs::exp {

/// Sweep values lo, lo + step, ... up to hi (inclusive, 1e-9 slack for
/// the accumulated rounding).
std::vector<double> range(double lo, double hi, double step);

/// Returns the experiment configuration for Figure 2 inset 'a'..'f' with
/// its built-in size and seed (the registry applies the MCS_TASKSETS /
/// MCS_SEED overrides to the sweep built from it).
ExperimentConfig figure2_config(char inset);

}  // namespace mcs::exp
