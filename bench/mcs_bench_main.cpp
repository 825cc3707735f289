// The mcs_bench multi-tool binary: every figure sweep, ablation and bench
// tool behind one entry point.
//
//   mcs_bench list
//   mcs_bench <sweep> [--shard=K/N] [--resume] [--log=PATH]
//                     [--out-dir=DIR] [--threads=T] [--max-attempts=M]
//   mcs_bench merge <sweep> <shard.jsonl>... [--out-dir=DIR]
//   mcs_bench fig1 | tightness | analysis | ablation_solver
//
// Registry sweeps (exp/registry.hpp) run on the deterministic work-queue
// engine: every unit is appended to a crash-safe JSONL log, --resume skips
// completed units, and --shard=K/N (K is 1-based) runs every N-th unit so
// independent processes/machines can split a sweep and `merge` folds their
// logs into the final CSV + telemetry snapshot.  The CSV bytes are
// identical however the work was split — see EXPERIMENTS.md.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/sweep_runner.hpp"
#include "support/telemetry.hpp"

#include "bench_common.hpp"

namespace mcs::bench {

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: mcs_bench <command> [options]\n"
         "\n"
         "commands:\n"
         "  list                         registered sweeps and tools\n"
         "  <sweep> [options]            run a registry sweep\n"
         "  merge <sweep> <log>...       merge shard logs into the CSV\n"
         "  fig1|tightness|analysis|ablation_solver   custom bench tools\n"
         "\n"
         "sweep options:\n"
         "  --shard=K/N      run units K-1 mod N (K is 1-based); no CSV\n"
         "  --resume         skip units already in the JSONL log\n"
         "  --log=PATH       result log (default <out-dir>/<sweep>[.shardKofN].jsonl)\n"
         "  --out-dir=DIR    output directory (default .)\n"
         "  --threads=T      worker threads (default MCS_THREADS or hardware)\n"
         "  --max-attempts=M retry budget per unit (default 2)\n"
         "\n"
         "environment: MCS_TASKSETS, MCS_SEED, MCS_THREADS, MCS_TELEMETRY\n";
  return code;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(parsed);
}

struct SweepCli {
  std::filesystem::path out_dir = ".";
  std::filesystem::path log_path;  // empty = default
  std::size_t shard_index = 0;     // 0-based
  std::size_t shard_count = 1;
  std::size_t threads = 0;
  std::uint32_t max_attempts = 2;
  bool resume = false;
};

/// Parses the sweep options; returns false (after printing to stderr) on a
/// malformed or unknown argument.
bool parse_sweep_args(int argc, char** argv, int first, SweepCli& cli) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--resume") {
      cli.resume = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      const std::string value = value_of("--shard=");
      const std::size_t slash = value.find('/');
      const auto k = slash == std::string::npos
                         ? std::nullopt
                         : parse_u64(value.substr(0, slash));
      const auto n = slash == std::string::npos
                         ? std::nullopt
                         : parse_u64(value.substr(slash + 1));
      if (!k || !n || *k < 1 || *n < 1 || *k > *n) {
        std::cerr << "mcs_bench: bad --shard=" << value
                  << " (expected K/N with 1 <= K <= N)\n";
        return false;
      }
      cli.shard_index = static_cast<std::size_t>(*k - 1);
      cli.shard_count = static_cast<std::size_t>(*n);
    } else if (arg.rfind("--log=", 0) == 0) {
      cli.log_path = value_of("--log=");
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      cli.out_dir = value_of("--out-dir=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      const auto t = parse_u64(value_of("--threads="));
      if (!t) {
        std::cerr << "mcs_bench: bad --threads value\n";
        return false;
      }
      cli.threads = static_cast<std::size_t>(*t);
    } else if (arg.rfind("--max-attempts=", 0) == 0) {
      const auto m = parse_u64(value_of("--max-attempts="));
      if (!m || *m < 1) {
        std::cerr << "mcs_bench: --max-attempts must be >= 1\n";
        return false;
      }
      cli.max_attempts = static_cast<std::uint32_t>(*m);
    } else {
      std::cerr << "mcs_bench: unknown option '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

std::filesystem::path default_log_path(const exp::SweepSpec& spec,
                                       const SweepCli& cli) {
  std::string stem = spec.name;
  if (cli.shard_count > 1) {
    stem += ".shard" + std::to_string(cli.shard_index + 1) + "of" +
            std::to_string(cli.shard_count);
  }
  return cli.out_dir / (stem + ".jsonl");
}

/// Table column width of a metric: 12, or its name plus two spaces when
/// the name is 12 characters or longer.
int column_width(const exp::MetricSpec& metric) {
  const int name = static_cast<int>(metric.column.size());
  return name >= 12 ? name + 2 : 12;
}

void print_sweep_table(const exp::SweepSpec& spec,
                       const std::vector<exp::SweepRow>& rows) {
  std::cout << "# " << spec.name << " — " << spec.title << "\n"
            << "# " << spec.slots_per_point << " sets/point; seed="
            << spec.seed << "\n"
            << std::left << std::setw(8) << spec.axis;
  for (const exp::MetricSpec& metric : spec.metrics) {
    std::cout << std::setw(column_width(metric)) << metric.column;
  }
  std::cout << "tasksets\n";
  for (const exp::SweepRow& row : rows) {
    std::cout << std::left << std::fixed << std::setprecision(3)
              << std::setw(8) << row.x;
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      const int width = column_width(spec.metrics[m]);
      if (spec.metrics[m].kind == exp::MetricSpec::kRatio) {
        const double ratio =
            row.ok_units == 0 ? 0.0
                              : static_cast<double>(row.metric_sums[m]) /
                                    static_cast<double>(row.ok_units);
        std::cout << std::setw(width) << ratio;
      } else {
        std::cout << std::setw(width) << row.metric_sums[m];
      }
    }
    std::cout << row.ok_units;
    if (row.errors != 0) {
      std::cout << "  (" << row.errors << " errors)";
    }
    std::cout << "\n";
  }
}

/// Progress printer: one line every ~5% of the shard (always the last),
/// with elapsed wall time and a linear ETA.
class ProgressPrinter {
 public:
  void operator()(std::size_t done, std::size_t total) {
    const std::size_t step = std::max<std::size_t>(1, total / 20);
    if (done % step != 0 && done != total) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta = done == 0 ? 0.0
                                 : elapsed / static_cast<double>(done) *
                                       static_cast<double>(total - done);
    std::cerr << "  " << done << "/" << total << " units, " << std::fixed
              << std::setprecision(1) << elapsed << "s elapsed, ETA "
              << eta << "s\n";
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

int run_registry_sweep(const exp::SweepEntry& entry, int argc, char** argv,
                       int first_option) {
  SweepCli cli;
  if (!parse_sweep_args(argc, argv, first_option, cli)) {
    return 2;
  }
  if (cli.threads == 0) {
    if (const char* v = std::getenv("MCS_THREADS")) {
      const auto t = parse_u64(v);
      if (!t) {
        std::cerr << "mcs_bench: bad MCS_THREADS value '" << v << "'\n";
        return 2;
      }
      cli.threads = static_cast<std::size_t>(*t);
    }
  }

  const exp::SweepSpec spec = entry.make();
  std::filesystem::create_directories(cli.out_dir);

  exp::RunnerOptions options;
  options.threads = cli.threads;
  options.shard_index = cli.shard_index;
  options.shard_count = cli.shard_count;
  options.log_path =
      cli.log_path.empty() ? default_log_path(spec, cli) : cli.log_path;
  options.resume = cli.resume;
  options.max_attempts = cli.max_attempts;
  options.progress = ProgressPrinter{};

  std::cout << "Running sweep '" << spec.name << "'";
  if (cli.shard_count > 1) {
    std::cout << " (shard " << cli.shard_index + 1 << "/" << cli.shard_count
              << ")";
  }
  std::cout << ": " << spec.title
            << "\n(scale with MCS_TASKSETS / MCS_SEED / MCS_THREADS)\n\n";

  const exp::SweepRunResult run = exp::run_sweep(spec, options);
  if (run.resume_skips != 0) {
    std::cout << "resumed: " << run.resume_skips
              << " units already in " << options.log_path.string() << "\n";
  }
  if (run.errors != 0) {
    std::cerr << "WARNING: " << run.errors
              << " units exhausted their retry budget (see error records in "
              << options.log_path.string() << ")\n";
  }

  if (cli.shard_count > 1) {
    std::cout << "shard " << cli.shard_index + 1 << "/" << cli.shard_count
              << " complete: " << run.outcomes.size() << " units in "
              << std::fixed << std::setprecision(1) << run.total_seconds
              << "s -> " << options.log_path.string()
              << "\nmerge all shards with: mcs_bench merge " << spec.name
              << " <shard logs...>\n";
    return 0;
  }

  const std::vector<exp::SweepRow> rows =
      exp::aggregate_outcomes(spec, run.outcomes);
  print_sweep_table(spec, rows);
  std::cout << "# total: " << std::fixed << std::setprecision(1)
            << run.total_seconds << " s\n";
  exp::write_sweep_csv(spec, rows, cli.out_dir / (spec.name + ".csv"));
  std::cout << "wrote " << (cli.out_dir / (spec.name + ".csv")).string()
            << "\n";
  write_bench_telemetry(spec.name);
  return 0;
}

int run_merge(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: mcs_bench merge <sweep> <shard.jsonl>... "
                 "[--out-dir=DIR]\n";
    return 2;
  }
  const exp::SweepEntry* entry = exp::find_sweep(argv[2]);
  if (entry == nullptr) {
    std::cerr << "mcs_bench: unknown sweep '" << argv[2] << "'\n";
    return 2;
  }
  std::filesystem::path out_dir = ".";
  std::vector<std::filesystem::path> logs;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "mcs_bench: unknown merge option '" << arg << "'\n";
      return 2;
    } else {
      logs.emplace_back(arg);
    }
  }

  const exp::SweepSpec spec = entry->make();
  const std::vector<exp::UnitOutcome> outcomes =
      exp::merge_sweep_logs(spec, logs);
  const std::vector<exp::SweepRow> rows =
      exp::aggregate_outcomes(spec, outcomes);
  print_sweep_table(spec, rows);
  std::filesystem::create_directories(out_dir);
  exp::write_sweep_csv(spec, rows, out_dir / (spec.name + ".csv"));
  std::cout << "merged " << logs.size() << " logs ("
            << outcomes.size() << " units) -> "
            << (out_dir / (spec.name + ".csv")).string() << "\n";

  // The merged telemetry snapshot: reconstruct the exp.sweep.* series from
  // the unit records (each shard only saw its own slice).
  if (support::telemetry::enabled()) {
    std::size_t errors = 0;
    std::uint64_t retries = 0;
    for (const exp::UnitOutcome& unit : outcomes) {
      if (!unit.ok) ++errors;
      retries += unit.attempts - 1;
      support::telemetry::record("exp.sweep.unit_seconds", unit.seconds);
    }
    support::telemetry::count("exp.sweep.units_done", outcomes.size());
    if (errors != 0) support::telemetry::count("exp.sweep.errors", errors);
    if (retries != 0) support::telemetry::count("exp.sweep.retries", retries);
    const auto path = out_dir / (spec.name + ".telemetry.json");
    support::telemetry::write_json_file(path);
    std::cout << "wrote " << path.string() << "\n";
  }
  return 0;
}

int run_list() {
  std::cout << "registered sweeps:\n";
  for (const exp::SweepEntry& entry : exp::sweep_registry()) {
    std::cout << "  " << std::left << std::setw(20) << entry.name
              << entry.description << "\n";
  }
  std::cout << "custom tools:\n"
            << "  " << std::left << std::setw(20) << "fig1"
            << "Figure 1 example schedules + bounds\n"
            << "  " << std::setw(20) << "tightness"
            << "bound / worst-observed response ratios\n"
            << "  " << std::setw(20) << "analysis"
            << "analysis-pipeline bench (BENCH_analysis.json)\n"
            << "  " << std::setw(20) << "ablation_solver"
            << "MILP strategy ablation (BENCH_solver.json)\n";
  return 0;
}

}  // namespace

int mcs_bench_main(int argc, char** argv) {
  if (argc < 2) {
    return usage(std::cerr, 2);
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(std::cout, 0);
  }
  if (command == "list") {
    return run_list();
  }
  if (command == "merge") {
    return run_merge(argc, argv);
  }
  if (command == "fig1") {
    return tool_fig1_main();
  }
  if (command == "tightness") {
    return tool_tightness_main();
  }
  if (command == "analysis") {
    return tool_analysis_main();
  }
  if (command == "ablation_solver") {
    return tool_ablation_solver_main();
  }
  if (const exp::SweepEntry* entry = exp::find_sweep(command)) {
    return run_registry_sweep(*entry, argc, argv, 2);
  }
  std::cerr << "mcs_bench: unknown command or sweep '" << command
            << "' (try: mcs_bench list)\n";
  return 2;
}

}  // namespace mcs::bench

int main(int argc, char** argv) {
  // A refused resume, an incomplete merge or a corrupt log: exit 2.
  try {
    return mcs::bench::mcs_bench_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "mcs_bench: " << error.what() << "\n";
    return 2;
  }
}
