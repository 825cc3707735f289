// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <fig2c-sweep|cli-analyze|admit-session>
//             --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --workdir <dir>
//             --mcs-bench <path> --mcs-cli <path>
//
// Runs one workload in-process through the same public entry points the
// front ends call, checks its outputs, prints a metric table and, as the
// last line of stdout, one JSON result object.  With --trace 0 the result
// carries the end-to-end metrics (telemetry off, no spans); with --trace 1
// the per-layer metrics of a traced pass.  The metric names and units are
// the ones <checkout>/BENCHMARK.json declares.  Unsound verdicts count as
// failed operations; an output that differs from its reference front end
// makes the result incorrect.  The exit status is 1 when the result is
// incorrect, a reference front end could not run, the metrics differ from
// the declared ones or the workload threw, and 2 on usage errors.
// perfbench/run.py builds and invokes it.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <fig2c-sweep|cli-analyze|"
               "admit-session> --seed <n> --seconds <s> --trace <0|1> "
               "--root <dir> --workdir <dir> --mcs-bench <path> "
               "--mcs-cli <path>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "root",
                          "workdir", "mcs-bench", "mcs-cli"}) {
    if (args.count(key) == 0) return usage();
  }
  // Environment overrides the registry and sweep engine honour would
  // change the inputs behind the benchmark's back.
  for (const char* var : {"MCS_SEED", "MCS_TASKSETS", "MCS_THREADS"}) {
    unsetenv(var);
  }

  perfbench::RunConfig config;
  try {
    config.workload = args["workload"];
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
    config.root = args["root"];
    config.workdir = args["workdir"];
    config.mcs_bench = args["mcs-bench"];
    config.mcs_cli = args["mcs-cli"];
  } catch (const std::exception&) {
    return usage();
  }
  try {
    config.declared =
        perfbench::load_declared_metrics(config.root / "BENCHMARK.json");
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  std::filesystem::create_directories(config.workdir);
  mcs::support::telemetry::set_enabled(false);

  perfbench::RunResult result;
  try {
    if (config.workload == "fig2c-sweep") {
      result = perfbench::run_fig2c_sweep(config);
    } else if (config.workload == "cli-analyze") {
      result = perfbench::run_cli_analyze(config);
    } else if (config.workload == "admit-session") {
      result = perfbench::run_admit_session(config);
    } else {
      std::cerr << "unknown workload '" << config.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << config.workload << ": " << error.what()
              << "\n";
    return 1;
  }
  const std::string mismatch = perfbench::compare_with_declared(
      result.metrics, config.trace ? config.declared.per_layer
                                   : config.declared.end_to_end);
  if (!mismatch.empty()) {
    std::cerr << "perfbench: " << config.workload
              << ": metrics differ from BENCHMARK.json: " << mismatch << "\n";
    return 1;
  }
  perfbench::print_table(
      config.workload + (config.trace ? " (traced)" : "") + ", seed " +
          std::to_string(config.seed),
      result.metrics);
  std::cout << perfbench::result_json(result.correct, result.attempted,
                                      result.failed, result.metrics)
            << std::endl;
  return result.correct ? 0 : 1;
}
