#include "exp/figures.hpp"

#include "support/contracts.hpp"

namespace mcs::exp {

std::vector<double> range(double lo, double hi, double step) {
  std::vector<double> values;
  for (double x = lo; x <= hi + 1e-9; x += step) {
    values.push_back(x);
  }
  return values;
}

ExperimentConfig figure2_config(char inset) {
  ExperimentConfig cfg;
  cfg.base.beta = 0.3;
  cfg.seed = 2020;
  // Bench-scale solver effort: 2% relative gap and a bounded node budget.
  // Both fallbacks are safe (the dual bound is used), merely pessimistic;
  // the `fallbacks` column of the output reports how often the node budget
  // was hit.  See DESIGN.md §2 / §5.7.
  cfg.analysis.milp.relative_gap = 0.02;
  cfg.analysis.milp.max_nodes = 4000;

  switch (inset) {
    case 'a':
      cfg.name = "fig2a";
      cfg.title =
          "schedulability ratio vs U (n=4, gamma=0.1, beta=0.3)";
      cfg.base.num_tasks = 4;
      cfg.base.gamma = 0.1;
      cfg.sweep = SweepParam::kUtilization;
      cfg.values = range(0.1, 0.9, 0.1);
      cfg.tasksets_per_point = 30;
      break;
    case 'b':
      cfg.name = "fig2b";
      cfg.title =
          "schedulability ratio vs U (n=6, gamma=0.1, beta=0.3)";
      cfg.base.num_tasks = 6;
      cfg.base.gamma = 0.1;
      cfg.sweep = SweepParam::kUtilization;
      cfg.values = range(0.1, 0.9, 0.1);
      cfg.tasksets_per_point = 20;
      break;
    case 'c':
      cfg.name = "fig2c";
      cfg.title =
          "schedulability ratio vs U (n=4, gamma=0.4, beta=0.3)";
      cfg.base.num_tasks = 4;
      cfg.base.gamma = 0.4;
      cfg.sweep = SweepParam::kUtilization;
      cfg.values = range(0.1, 0.9, 0.1);
      cfg.tasksets_per_point = 30;
      break;
    case 'd':
      cfg.name = "fig2d";
      cfg.title =
          "schedulability ratio vs U (n=6, gamma=0.4, beta=0.3)";
      cfg.base.num_tasks = 6;
      cfg.base.gamma = 0.4;
      cfg.sweep = SweepParam::kUtilization;
      cfg.values = range(0.1, 0.9, 0.1);
      cfg.tasksets_per_point = 20;
      break;
    case 'e':
      cfg.name = "fig2e";
      cfg.title =
          "schedulability ratio vs gamma (n=4, U=0.35, beta=0.3)";
      cfg.base.num_tasks = 4;
      cfg.base.utilization = 0.35;
      cfg.sweep = SweepParam::kGamma;
      cfg.values = range(0.1, 0.5, 0.05);
      cfg.tasksets_per_point = 30;
      break;
    case 'f':
      cfg.name = "fig2f";
      cfg.title =
          "schedulability ratio vs beta (n=4, U=0.35, gamma=0.25)";
      cfg.base.num_tasks = 4;
      cfg.base.utilization = 0.35;
      cfg.base.gamma = 0.25;
      cfg.sweep = SweepParam::kBeta;
      cfg.values = range(0.05, 0.95, 0.1);
      cfg.tasksets_per_point = 30;
      break;
    default:
      MCS_REQUIRE(false, "figure2_config: inset must be 'a'..'f'");
  }
  return cfg;
}

}  // namespace mcs::exp
