// Automotive ECU scenario: the workload class that motivates the paper's
// latency-sensitive task support (§I).
//
// A single core of an engine-control unit runs a mix of tasks.  Two of them
// — crankshaft-synchronous injection control and airbag-crash evaluation —
// tolerate almost no scheduling delay (latency-sensitive), while the rest
// are throughput-oriented.  The example shows:
//
//   * the WP2016 protocol loses the injection task to double blocking;
//   * the greedy algorithm of §VI finds an LS marking under which the
//     proposed protocol schedules the whole set;
//   * the resulting LS marking matches the intuition (the tight-deadline
//     tasks get marked);
//   * a simulation under that marking passes the protocol audit
//     (check/trace_audit.hpp) — the example exits 1 when it does not.
#include <iomanip>
#include <iostream>

#include "analysis/schedulability.hpp"
#include "check/trace_audit.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"

using namespace mcs;

namespace {

rt::Task make(std::string name, rt::Time exec, rt::Time mem, rt::Time period,
              rt::Time deadline) {
  rt::Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = mem;
  t.copy_out = mem;
  t.period = period;
  t.deadline = deadline;
  return t;
}

}  // namespace

int main() {
  // Times in microseconds.
  rt::TaskSet ecu;
  ecu.push_back(make("injection", 180, 40, 2'000, 1'600));  // crank-synced
  ecu.push_back(make("airbag", 120, 30, 5'000, 1'900));     // crash eval
  ecu.push_back(make("lambda", 400, 90, 10'000, 6'000));    // O2 control
  ecu.push_back(make("knock", 500, 120, 10'000, 8'000));    // knock filter
  ecu.push_back(make("diag", 900, 250, 50'000, 40'000));    // OBD diagnosis
  ecu.push_back(make("logger", 700, 350, 100'000, 90'000)); // flight record
  ecu.assign_deadline_monotonic_priorities();
  ecu.validate();

  std::cout << "=== Automotive ECU core: " << ecu.size() << " tasks, "
            << "U = " << std::fixed << std::setprecision(3)
            << ecu.utilization()
            << " (with memory phases: " << ecu.total_utilization()
            << ") ===\n\n";

  const auto wp =
      analysis::analyze(ecu, analysis::Approach::kWasilyPellizzoni);
  const auto nps = analysis::analyze(ecu, analysis::Approach::kNonPreemptive);
  const auto prop = analysis::analyze(ecu, analysis::Approach::kProposed);

  std::cout << std::left << std::setw(11) << "task" << std::setw(9) << "D"
            << std::setw(10) << "wp2016" << std::setw(10) << "nps"
            << std::setw(10) << "proposed" << "LS?\n";
  for (std::size_t i = 0; i < ecu.size(); ++i) {
    const auto show = [](rt::Time w) {
      return w == rt::kTimeMax ? std::string("-") : std::to_string(w);
    };
    std::cout << std::left << std::setw(11) << ecu[i].name << std::setw(9)
              << ecu[i].deadline << std::setw(10) << show(wp.wcrt[i])
              << std::setw(10) << show(nps.wcrt[i]) << std::setw(10)
              << show(prop.wcrt[i])
              << (prop.ls_flags[i] ? "yes" : "no") << "\n";
  }
  std::cout << "\nschedulable: wp2016=" << wp.schedulable
            << " nps=" << nps.schedulable
            << " proposed=" << prop.schedulable << "\n\n";

  if (prop.schedulable) {
    // Validate by simulation with the chosen LS marking.
    rt::TaskSet marked = ecu;
    for (std::size_t i = 0; i < marked.size(); ++i) {
      marked[i].latency_sensitive = prop.ls_flags[i];
    }
    const auto releases =
        sim::synchronous_periodic_releases(marked, 1'000'000);
    const auto trace =
        sim::simulate(marked, sim::Protocol::kProposed, releases);
    const auto report =
        check::audit_trace(marked, sim::Protocol::kProposed, trace);
    std::cout << "simulation over 1s horizon: "
              << trace.jobs.size() << " jobs, deadline misses: "
              << trace.deadline_misses()
              << ", protocol invariants: "
              << (report.clean() ? "OK" : "BROKEN") << "\n";
    for (std::size_t i = 0; i < marked.size(); ++i) {
      std::cout << "  " << std::setw(11) << marked[i].name
                << " observed R = " << std::setw(7)
                << trace.worst_response(i) << "  bound = " << prop.wcrt[i]
                << "\n";
    }
    if (!report.clean()) {
      check::render(report, std::cerr);
      return 1;
    }
  }
  return 0;
}
