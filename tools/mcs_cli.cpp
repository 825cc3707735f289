// mcs_cli — command-line front end to the library.
//
//   mcs_cli analyze  <workload>  [--approach=proposed|wp|nps|all] [--opa]
//   mcs_cli simulate <workload>  [--protocol=proposed|wp|nps]
//                                [--horizon=<ticks>] [--pattern=sync|sporadic]
//                                [--seed=<n>] [--gantt]
//   mcs_cli chains   <workload>  [--approach=proposed|wp|nps]
//   mcs_cli export-lp <workload> <task-name> [--window=<ticks>] [--ls-case=a|b]
//   mcs_cli admit    [--socket=<path>] [--script=<file>]
//                    [--verify-log=<file>]
//   mcs_cli example  — print a sample workload file
//
// `admit` is the client side of the admission-control service
// (docs/SERVICE.md): it reads newline-delimited JSON requests from
// --script (or stdin) and sends them in lockstep to the mcs_serve socket
// named by --socket — or, without --socket, to an in-process
// AdmissionService, so scripted sessions run without a server.
// --verify-log replays a service request log (svc/request_log.hpp)
// against a fresh in-process service and checks every non-degraded
// verdict re-derives identically.
//
// Every command additionally accepts --telemetry=<file>: after the command
// runs, a JSON snapshot of the solver/analysis telemetry (simplex
// iterations, B&B nodes, fixpoint rounds, timers — see
// support/telemetry.hpp for the schema) is written to <file>.
//
// Workload files use the format documented in rt/io.hpp.  Exit status: 0 on
// success (analyze: schedulable), 1 on a negative verdict, 2 on usage or
// input errors.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/chains.hpp"
#include "analysis/engine.hpp"
#include "analysis/milp_formulation.hpp"
#include "lp/lp_writer.hpp"
#include "rt/io.hpp"
#include "sim/chain_age.hpp"
#include "sim/engine.hpp"
#include "sim/gantt.hpp"
#include "sim/job_source.hpp"
#include "sim/metrics.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"

using namespace mcs;

namespace {

int usage() {
  std::cerr <<
      "usage:\n"
      "  mcs_cli analyze   <workload> [--approach=proposed|wp|nps|all] "
      "[--opa]\n"
      "  mcs_cli simulate  <workload> [--protocol=proposed|wp|nps]\n"
      "                    [--horizon=<ticks>] [--pattern=sync|sporadic]\n"
      "                    [--seed=<n>] [--gantt]\n"
      "  mcs_cli chains    <workload> [--approach=proposed|wp|nps]\n"
      "  mcs_cli export-lp <workload> <task> [--window=<ticks>] "
      "[--ls-case=a|b]\n"
      "  mcs_cli admit     [--socket=<path>] [--script=<file>]\n"
      "                    [--verify-log=<file>]  (admission-control "
      "client,\n"
      "                    docs/SERVICE.md; no --socket = in-process "
      "service)\n"
      "  mcs_cli example\n"
      "options common to all commands:\n"
      "  --telemetry=<file>  write a JSON solver/analysis telemetry "
      "snapshot\n";
  return 2;
}

/// "--key=value" option access over argv.
std::optional<std::string> option(int argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

bool flag(int argc, char** argv, const char* key) {
  const std::string name = std::string("--") + key;
  for (int i = 0; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

std::optional<analysis::Approach> parse_approach(const std::string& name) {
  if (name == "proposed") return analysis::Approach::kProposed;
  if (name == "wp") return analysis::Approach::kWasilyPellizzoni;
  if (name == "nps") return analysis::Approach::kNonPreemptive;
  return std::nullopt;
}

std::optional<sim::Protocol> parse_protocol(const std::string& name) {
  if (name == "proposed") return sim::Protocol::kProposed;
  if (name == "wp") return sim::Protocol::kWasilyPellizzoni;
  if (name == "nps") return sim::Protocol::kNonPreemptive;
  return std::nullopt;
}

std::string show_time(rt::Time t) {
  return t == rt::kTimeMax ? std::string("-") : std::to_string(t);
}

int cmd_analyze(const rt::Workload& workload, int argc, char** argv) {
  const std::string which =
      option(argc, argv, "approach").value_or("all");
  const bool use_opa = flag(argc, argv, "opa");

  std::vector<analysis::Approach> approaches;
  if (which == "all") {
    approaches = {analysis::Approach::kProposed,
                  analysis::Approach::kWasilyPellizzoni,
                  analysis::Approach::kNonPreemptive};
  } else if (const auto parsed = parse_approach(which)) {
    approaches = {*parsed};
  } else {
    std::cerr << "unknown approach '" << which << "'\n";
    return 2;
  }

  // One engine across every requested approach, but the approaches share
  // no cached formulation: proposed (run first) uses the LS formulation
  // slots, WP its own all-NLS (ignore_ls) slot, and NPS its own memo.  The
  // reuse is inside proposed: each greedy round patches the formulations
  // of the round before (new LS marking as bound/rhs edits) instead of
  // rebuilding them.  Greedy rounds stop at their first miss.
  analysis::AnalysisEngine engine;

  const auto& tasks = workload.tasks;
  bool all_ok = true;
  for (const auto approach : approaches) {
    const auto result = engine.analyze(tasks, approach, {});
    std::cout << "== " << to_string(approach) << ": "
              << (result.schedulable ? "SCHEDULABLE" : "not schedulable")
              << "\n";
    std::cout << std::left << std::setw(14) << "  task" << std::setw(10)
              << "D" << std::setw(12) << "WCRT" << "LS\n";
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      std::cout << "  " << std::left << std::setw(12) << tasks[i].name
                << std::setw(10) << tasks[i].deadline << std::setw(12)
                << show_time(result.wcrt[i])
                << (result.ls_flags[i] ? "yes" : "") << "\n";
    }
    if (!result.schedulable && use_opa) {
      const auto opa = engine.audsley_assign(tasks, approach, {});
      std::cout << "  OPA: " << (opa.schedulable
                                     ? "feasible priority order found"
                                     : "infeasible under any order")
                << " (" << opa.test_count << " tests)\n";
      if (opa.schedulable) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          std::cout << "    " << tasks[i].name << " -> prio "
                    << opa.priorities[i] << "\n";
        }
      }
      all_ok = all_ok && opa.schedulable;
    } else {
      all_ok = all_ok && result.schedulable;
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_simulate(const rt::Workload& workload, int argc, char** argv) {
  const auto protocol =
      parse_protocol(option(argc, argv, "protocol").value_or("proposed"));
  if (!protocol) {
    std::cerr << "unknown protocol\n";
    return 2;
  }
  // Horizon in raw ticks (same unit as the workload file); default: twenty
  // times the largest period.
  rt::Time horizon = 0;
  if (const auto h = option(argc, argv, "horizon")) {
    horizon = static_cast<rt::Time>(std::stoll(*h));
  } else {
    for (const auto& t : workload.tasks) {
      horizon = std::max(horizon, 20 * t.period);
    }
  }
  const std::string pattern =
      option(argc, argv, "pattern").value_or("sync");
  const std::uint64_t seed =
      std::stoull(option(argc, argv, "seed").value_or("1"));

  support::Rng rng(seed);
  const auto releases =
      pattern == "sporadic"
          ? sim::random_sporadic_releases(workload.tasks, horizon, 0.5, rng)
          : sim::synchronous_periodic_releases(workload.tasks, horizon);
  const auto trace = sim::simulate(workload.tasks, *protocol, releases);
  const auto metrics = sim::compute_metrics(workload.tasks, trace);

  std::cout << "protocol " << to_string(*protocol) << ", "
            << trace.jobs.size() << " jobs, " << trace.intervals.size()
            << " intervals\n"
            << "deadline misses: " << metrics.deadline_misses
            << ", cancellations: " << metrics.cancellations
            << ", urgent promotions: " << metrics.urgent_promotions << "\n"
            << std::fixed << std::setprecision(3)
            << "cpu utilization: " << metrics.cpu_utilization()
            << ", dma utilization: " << metrics.dma_utilization()
            << ", hiding ratio: " << metrics.hiding_ratio() << "\n";
  for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
    std::cout << "  " << std::left << std::setw(12)
              << workload.tasks[i].name
              << " worst response: " << show_time(trace.worst_response(i))
              << "\n";
  }
  if (flag(argc, argv, "gantt")) {
    sim::GanttOptions opt;
    opt.ticks_per_char =
        std::max<rt::Time>(1, horizon / 120);
    opt.job_summary = false;
    std::cout << "\n"
              << sim::render_gantt(workload.tasks, *protocol, trace, opt);
  }
  return metrics.deadline_misses == 0 ? 0 : 1;
}

int cmd_chains(const rt::Workload& workload, int argc, char** argv) {
  if (workload.chains.empty()) {
    std::cerr << "workload has no chains\n";
    return 2;
  }
  const auto approach = parse_approach(
      option(argc, argv, "approach").value_or("proposed"));
  if (!approach) {
    std::cerr << "unknown approach\n";
    return 2;
  }
  const auto result = analysis::analyze(workload.tasks, *approach);
  bool all_ok = true;
  for (const auto& chain : workload.chains) {
    const auto bound =
        analysis::chain_age_bound(workload.tasks, chain, result.wcrt);
    std::cout << chain.name << ": ";
    if (!bound.valid) {
      std::cout << "no valid age bound (stage unbounded or backlogged)\n";
      all_ok = false;
      continue;
    }
    std::cout << "max data age <= " << bound.max_data_age;
    if (chain.max_data_age > 0) {
      std::cout << " (constraint " << chain.max_data_age << ": "
                << (bound.meets_constraint ? "met" : "VIOLATED") << ")";
      all_ok = all_ok && bound.meets_constraint;
    }
    std::cout << "\n";
  }
  return all_ok ? 0 : 1;
}

int cmd_export_lp(const rt::Workload& workload, int argc, char** argv) {
  if (argc < 1) {
    std::cerr << "export-lp needs a task name\n";
    return 2;
  }
  const std::string task_name = argv[0];
  std::optional<rt::TaskIndex> index;
  for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
    if (workload.tasks[i].name == task_name) {
      index = i;
    }
  }
  if (!index) {
    std::cerr << "unknown task '" << task_name << "'\n";
    return 2;
  }
  const rt::Time window = static_cast<rt::Time>(std::stoll(
      option(argc, argv, "window")
          .value_or(std::to_string(workload.tasks[*index].deadline))));
  auto fcase = analysis::FormulationCase::kNls;
  if (const auto ls = option(argc, argv, "ls-case")) {
    fcase = *ls == "b" ? analysis::FormulationCase::kLsCaseB
                       : analysis::FormulationCase::kLsCaseA;
  }
  const auto milp =
      analysis::build_delay_milp(workload.tasks, *index, window, fcase);
  lp::write_lp_format(milp.model, std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// admit — admission-control client (docs/SERVICE.md).

/// Lockstep line client over a Unix-domain stream socket: one request
/// line out, one response line back.
class LineSocket {
 public:
  explicit LineSocket(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      const std::string message =
          "connect " + path + ": " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(message);
    }
  }
  ~LineSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  void send_line(const std::string& line) {
    std::string buf = line;
    buf.push_back('\n');
    std::size_t written = 0;
    while (written < buf.size()) {
      const ssize_t n =
          ::write(fd_, buf.data() + written, buf.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      written += static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      if (n == 0) {
        throw std::runtime_error("server closed the connection mid-response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool response_ok(const std::string& response) {
  try {
    const support::Json parsed = support::parse_json(response);
    const support::Json* ok = parsed.find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
  } catch (const support::JsonError&) {
    return false;
  }
}

/// Replays a request log against a fresh in-process service: every record
/// must re-derive a response with the same ok field (and, for non-degraded
/// verdicts, the same fingerprint and schedulability).  Timing-dependent
/// records — overload sheds, degraded verdicts — only need a well-formed
/// counterpart.  A torn trailing line (SIGKILL artifact) is reported but
/// is not an error.
int cmd_verify_log(const std::string& path) {
  const svc::RequestLogContents contents = svc::read_request_log(path);
  auto service = std::make_unique<svc::AdmissionService>(svc::ServiceConfig{});
  std::size_t replayed = 0;
  std::size_t skipped = 0;
  std::size_t restarts = 0;
  std::optional<std::uint64_t> last_seq;
  for (const svc::RequestLogRecord& rec : contents.records) {
    // Sequence numbers are strictly increasing within one server process
    // and reset to 0 on restart; a SIGKILLed server loses its in-memory
    // state, so the replay must shed its state at the same point.
    if (last_seq && rec.seq <= *last_seq) {
      service = std::make_unique<svc::AdmissionService>(svc::ServiceConfig{});
      ++restarts;
    }
    last_seq = rec.seq;
    support::Json logged;
    try {
      logged = support::parse_json(rec.response);
    } catch (const support::JsonError& e) {
      std::cerr << "verify-log: unparseable logged response at seq "
                << rec.seq << ": " << e.what() << "\n";
      return 1;
    }
    const support::Json* err = logged.find("error");
    if (err != nullptr) {
      const support::Json* code = err->find("code");
      if (code != nullptr && code->is_string() &&
          code->as_string() == "overloaded") {
        ++skipped;  // shedding depends on live queue depth
        continue;
      }
    }
    const std::string fresh_text = service->handle_line(rec.request);
    const support::Json fresh = support::parse_json(fresh_text);
    const support::Json* logged_ok = logged.find("ok");
    const support::Json* fresh_ok = fresh.find("ok");
    if (logged_ok == nullptr || fresh_ok == nullptr ||
        logged_ok->as_bool() != fresh_ok->as_bool()) {
      std::cerr << "verify-log: ok mismatch at seq " << rec.seq << "\n  log: "
                << rec.response << "\n  now: " << fresh_text << "\n";
      return 1;
    }
    const support::Json* logged_v = logged.find("verdict");
    const support::Json* fresh_v = fresh.find("verdict");
    if (logged_v != nullptr && fresh_v != nullptr) {
      const auto degraded = [](const support::Json& v) {
        const support::Json* d = v.find("degraded");
        return d != nullptr && d->is_bool() && d->as_bool();
      };
      if (!degraded(*logged_v) && !degraded(*fresh_v)) {
        const auto field_text = [](const support::Json& v, const char* key) {
          const support::Json* f = v.find(key);
          return f == nullptr ? std::string("<absent>") : f->dump();
        };
        for (const char* key : {"schedulable", "fingerprint", "tasks"}) {
          if (field_text(*logged_v, key) != field_text(*fresh_v, key)) {
            std::cerr << "verify-log: verdict." << key << " mismatch at seq "
                      << rec.seq << "\n  log: " << rec.response
                      << "\n  now: " << fresh_text << "\n";
            return 1;
          }
        }
      }
    }
    ++replayed;
  }
  std::cout << "verify-log: " << replayed << " records re-derived across "
            << (restarts + 1) << " server run(s), " << skipped
            << " skipped (overload sheds)"
            << (contents.truncated_tail ? ", torn tail dropped" : "") << "\n";
  return 0;
}

int cmd_admit(int argc, char** argv) {
  if (const auto log_path = option(argc, argv, "verify-log")) {
    return cmd_verify_log(*log_path);
  }
  const auto socket_path = option(argc, argv, "socket");
  const auto script_path = option(argc, argv, "script");

  std::ifstream script;
  std::istream* in = &std::cin;
  if (script_path) {
    script.open(*script_path);
    if (!script.is_open()) {
      std::cerr << "cannot open script " << *script_path << "\n";
      return 2;
    }
    in = &script;
  }

  std::optional<LineSocket> remote;
  std::optional<svc::AdmissionService> local;
  if (socket_path) {
    remote.emplace(*socket_path);
  } else {
    local.emplace(svc::ServiceConfig{});
  }

  bool all_ok = true;
  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    std::string response;
    if (remote) {
      remote->send_line(line);
      response = remote->recv_line();
    } else {
      response = local->handle_line(line);
    }
    std::cout << response << "\n";
    all_ok = all_ok && response_ok(response);
  }
  return all_ok ? 0 : 1;
}

constexpr const char* kExample = R"(# mcs-cosched example workload (times in ticks; pick your own unit)
task control  C=300  l=60  u=60  T=2000  D=1700
task vision   C=900  l=350 u=350 T=5000  D=5000
task logging  C=600  l=150 u=150 T=10000 D=10000
chain perceive age=20000 tasks=vision,control
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  if (command == "example") {
    std::cout << kExample;
    return 0;
  }
  if (command == "admit") {
    // Client mode: no workload file — requests come from --script / stdin.
    try {
      return cmd_admit(argc - 2, argv + 2);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 2;
    }
  }
  if (argc < 3) {
    return usage();
  }
  try {
    const rt::Workload workload = rt::load_workload_file(argv[2]);
    const int rest_argc = argc - 3;
    char** rest_argv = argv + 3;
    // --telemetry=<file> forces collection on and dumps a snapshot once the
    // command has run (whatever its verdict).
    const auto telemetry_file = option(rest_argc, rest_argv, "telemetry");
    if (telemetry_file) {
      support::telemetry::set_enabled(true);
    }
    std::optional<int> status;
    if (command == "analyze") {
      status = cmd_analyze(workload, rest_argc, rest_argv);
    } else if (command == "simulate") {
      status = cmd_simulate(workload, rest_argc, rest_argv);
    } else if (command == "chains") {
      status = cmd_chains(workload, rest_argc, rest_argv);
    } else if (command == "export-lp") {
      status = cmd_export_lp(workload, rest_argc, rest_argv);
    }
    if (status) {
      if (telemetry_file) {
        support::telemetry::write_json_file(*telemetry_file);
        std::cerr << "telemetry written to " << *telemetry_file << "\n";
      }
      return *status;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  return usage();
}
