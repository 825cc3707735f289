#include "analysis/sensitivity.hpp"

#include "analysis/engine.hpp"

namespace mcs::analysis {

SensitivityResult max_scaling_factor(const rt::TaskSet& tasks,
                                     Approach approach,
                                     ScalingDimension dimension,
                                     const SensitivityOptions& options) {
  // The search lives in AnalysisEngine (engine.cpp); each probe is one
  // analysis of the scaled task set.
  AnalysisEngine engine;
  return engine.max_scaling_factor(tasks, approach, dimension, options);
}

}  // namespace mcs::analysis
