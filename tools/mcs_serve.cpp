// mcs_serve — long-running admission-control service (docs/SERVICE.md).
//
//   mcs_serve [--socket=<path>] [--no-stdio] [--threads=<n>]
//             [--cache=<entries>] [--high-water=<n>] [--budget-ms=<ms>]
//             [--log=<file>] [--log-truncate] [--telemetry=<file>]
//
// Speaks the newline-delimited JSON admission protocol on stdin/stdout
// and, with --socket, on a Unix-domain stream socket; both transports feed
// one shared AdmissionService (per-core task sets, verdict cache, overload
// shedding).  Runs until stdin reaches EOF (unless --no-stdio) or a
// `shutdown` request arrives.  --budget-ms sets the default per-request
// degradation budget for requests that carry none (0 = unlimited).
//
// Exit status: 0 on clean shutdown, 2 on usage or startup errors.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "support/telemetry.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

using namespace mcs;

namespace {

int usage() {
  std::cerr
      << "usage: mcs_serve [--socket=<path>] [--no-stdio] [--threads=<n>]\n"
         "                 [--cache=<entries>] [--high-water=<n>]\n"
         "                 [--budget-ms=<ms>] [--log=<file>] "
         "[--log-truncate]\n"
         "                 [--telemetry=<file>]\n"
         "Serves the newline-delimited JSON admission protocol "
         "(docs/SERVICE.md)\n"
         "on stdin/stdout and, with --socket, on a Unix-domain socket.\n";
  return 2;
}

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

std::size_t parse_count(const std::string& text, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    throw std::runtime_error(std::string("bad ") + what + ": " + text);
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  const int rest_argc = argc - 1;
  char** rest_argv = argv + 1;
  for (int i = 0; i < rest_argc; ++i) {
    if (std::strcmp(rest_argv[i], "--help") == 0 ||
        std::strcmp(rest_argv[i], "-h") == 0) {
      return usage();
    }
  }
  try {
    svc::ServiceConfig config;
    if (const auto v = option(rest_argc, rest_argv, "threads")) {
      config.threads = parse_count(*v, "--threads");
    }
    if (const auto v = option(rest_argc, rest_argv, "cache")) {
      config.cache_capacity = parse_count(*v, "--cache");
    }
    if (const auto v = option(rest_argc, rest_argv, "high-water")) {
      config.queue_high_water = parse_count(*v, "--high-water");
    }
    if (const auto v = option(rest_argc, rest_argv, "budget-ms")) {
      char* end = nullptr;
      config.default_budget_ms = std::strtod(v->c_str(), &end);
      if (end == nullptr || *end != '\0' || config.default_budget_ms < 0) {
        throw std::runtime_error("bad --budget-ms: " + *v);
      }
    }
    if (const auto v = option(rest_argc, rest_argv, "log")) {
      config.log_path = *v;
      config.log_truncate = flag(rest_argc, rest_argv, "log-truncate");
    }
    const auto telemetry_file = option(rest_argc, rest_argv, "telemetry");
    if (telemetry_file) {
      support::telemetry::set_enabled(true);
    }

    svc::ServerConfig server;
    server.serve_stdio = !flag(rest_argc, rest_argv, "no-stdio");
    if (const auto v = option(rest_argc, rest_argv, "socket")) {
      server.socket_path = *v;
    }
    server.max_line_bytes = config.max_request_bytes;

    svc::AdmissionService service(std::move(config));
    const int rc = svc::run_server(service, server);
    if (telemetry_file) {
      support::telemetry::write_json_file(*telemetry_file);
      std::cerr << "telemetry written to " << *telemetry_file << "\n";
    }
    return rc;
  } catch (const std::exception& error) {
    std::cerr << "mcs_serve: " << error.what() << "\n";
    return 2;
  }
}
