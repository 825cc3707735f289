// Shared entry points of the mcs_bench multi-tool binary.
//
// Every figure/ablation sweep and every custom bench tool is reachable as
// `mcs_bench <name> [options]`.
#pragma once

#include <filesystem>
#include <iostream>
#include <string>

#include "support/telemetry.hpp"

namespace mcs::bench {

/// Writes <name>.telemetry.json into the current directory when telemetry
/// is enabled.  Shared by every bench tool that produces a CSV.
inline void write_bench_telemetry(const std::string& name) {
  if (!support::telemetry::enabled()) return;
  const auto path =
      std::filesystem::current_path() / (name + ".telemetry.json");
  support::telemetry::write_json_file(path);
  std::cout << "wrote " << name << ".telemetry.json\n";
}

/// Custom (non-sweep-registry) bench tools.
int tool_fig1_main();
int tool_tightness_main();
int tool_analysis_main();
int tool_ablation_solver_main();

}  // namespace mcs::bench
