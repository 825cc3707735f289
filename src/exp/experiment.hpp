// Experiment harness for the paper's evaluation (§VII, Figure 2).
//
// An experiment sweeps one generation parameter (task-set utilization U,
// memory-intensity gamma, or deadline-tightness beta) over a range of
// values; at each sweep point it generates many random task sets and
// measures the fraction deemed schedulable by each of the three approaches
// (proposed / WP2016 [3] / NPS).
//
// An ExperimentConfig only describes the sweep; experiment_sweep_spec turns
// it into a SweepSpec for exp::run_sweep (sweep_runner.hpp), where every
// (point, task-set slot) pair is one unit in a global work queue, seeded
// purely by derive_seed(seed, point, slot), so the CSV output is
// byte-identical for a fixed seed regardless of thread count, shard
// layout, or kill/--resume boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/schedulability.hpp"
#include "exp/sweep_runner.hpp"
#include "gen/generator.hpp"

namespace mcs::exp {

enum class SweepParam { kUtilization, kGamma, kBeta, kNumTasks };

const char* to_string(SweepParam param) noexcept;

struct ExperimentConfig {
  std::string name;   ///< e.g. "fig2a" (used for the CSV file name)
  std::string title;  ///< human-readable description
  gen::GeneratorConfig base;  ///< fixed generation parameters
  SweepParam sweep = SweepParam::kUtilization;
  std::vector<double> values;  ///< sweep points (x axis)
  std::size_t tasksets_per_point = 40;
  std::uint64_t seed = 1;
  analysis::AnalysisOptions analysis;
};

/// The SweepSpec equivalent of `config`: metric columns proposed / wp2016 /
/// nps (ratios) and relaxation_fallbacks / fallbacks_wp / fallbacks_proposed
/// (counts); evaluate() runs the three-approach analysis pipeline on one
/// generated task set.  Run it with run_sweep, fold the outcomes with
/// aggregate_outcomes and write them with write_sweep_csv.
SweepSpec experiment_sweep_spec(const ExperimentConfig& config);

}  // namespace mcs::exp
