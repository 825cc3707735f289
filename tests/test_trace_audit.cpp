// Tests of the protocol-invariant trace auditor (check/trace_audit.hpp)
// and the CSV trace import (sim/trace_import.hpp).
//
// The auditor is the repository's one trace oracle for the R1-R6 /
// Properties 1-4 checks: simulator output must audit clean under every
// protocol (directly and after a CSV export/import round trip), and
// targeted in-memory corruptions of a real trace must each trip their
// MCS-P rule.  (A checker that accepts everything would pass the positive
// direction; the negative cases are what make it an oracle.)
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/diagnostics.hpp"
#include "check/trace_audit.hpp"
#include "gen/generator.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"
#include "sim/trace_import.hpp"
#include "support/rng.hpp"

namespace {

using mcs::check::audit_trace;
using mcs::check::CheckReport;
using mcs::rt::Task;
using mcs::rt::TaskSet;
using mcs::rt::Time;
using mcs::sim::CopyInOutcome;
using mcs::sim::CpuAction;
using mcs::sim::Protocol;
using mcs::sim::Trace;

Task make_task(std::string name, Time exec, Time mem, Time period,
               Time deadline, mcs::rt::Priority priority, bool ls = false) {
  Task t;
  t.name = std::move(name);
  t.exec = exec;
  t.copy_in = mem;
  t.copy_out = mem;
  t.period = period;
  t.deadline = deadline;
  t.priority = priority;
  t.latency_sensitive = ls;
  return t;
}

TaskSet mixed_set() {
  return TaskSet({make_task("s", 2, 1, 30, 10, 0, true),
                  make_task("a", 4, 2, 40, 30, 1),
                  make_task("b", 3, 1, 50, 45, 2),
                  make_task("c", 5, 2, 80, 70, 3)});
}

std::string render_all(const CheckReport& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += mcs::check::render(d) + "\n";
  }
  return out;
}

Trace run(const TaskSet& tasks, Protocol protocol, Time horizon = 4000) {
  auto releases = mcs::sim::synchronous_periodic_releases(tasks, horizon);
  return mcs::sim::simulate(tasks, protocol, std::move(releases));
}

TEST(TraceAudit, SimulatorOutputAuditsCleanUnderEveryProtocol) {
  const TaskSet tasks = mixed_set();
  for (const Protocol protocol :
       {Protocol::kProposed, Protocol::kWasilyPellizzoni,
        Protocol::kNonPreemptive}) {
    const Trace trace = run(tasks, protocol);
    ASSERT_FALSE(trace.jobs.empty());
    const CheckReport report = audit_trace(tasks, protocol, trace);
    EXPECT_TRUE(report.clean())
        << mcs::sim::to_string(protocol) << "\n" << render_all(report);
  }
}

TEST(TraceAudit, RandomizedSporadicTracesAuditClean) {
  mcs::support::Rng rng(0xBEEF);
  mcs::gen::GeneratorConfig config;
  config.num_tasks = 5;
  config.utilization = 0.4;
  for (int trial = 0; trial < 10; ++trial) {
    TaskSet tasks = mcs::gen::generate_task_set(config, rng);
    for (mcs::rt::TaskIndex j = 0; j < tasks.size(); ++j) {
      if (tasks[j].priority <= 1) {
        tasks[j].latency_sensitive = true;  // provoke cancellations
      }
    }
    auto releases = mcs::sim::random_sporadic_releases(tasks, 3000, 0.5, rng);
    for (const Protocol protocol :
         {Protocol::kProposed, Protocol::kWasilyPellizzoni,
          Protocol::kNonPreemptive}) {
      auto rel = releases;
      const Trace trace = mcs::sim::simulate(tasks, protocol, std::move(rel));
      const CheckReport report = audit_trace(tasks, protocol, trace);
      EXPECT_TRUE(report.clean())
          << "trial " << trial << " " << mcs::sim::to_string(protocol) << "\n"
          << render_all(report);
    }
  }
}

TEST(TraceAudit, CsvRoundTripPreservesAuditVerdict) {
  const TaskSet tasks = mixed_set();
  const Trace trace = run(tasks, Protocol::kProposed);

  std::ostringstream intervals;
  std::ostringstream jobs;
  mcs::sim::export_intervals_csv(tasks, trace, intervals);
  mcs::sim::export_jobs_csv(tasks, trace, jobs);
  std::istringstream intervals_in(intervals.str());
  std::istringstream jobs_in(jobs.str());
  const Trace imported =
      mcs::sim::import_trace_csv(tasks, intervals_in, jobs_in);

  ASSERT_EQ(imported.intervals.size(), trace.intervals.size());
  ASSERT_EQ(imported.jobs.size(), trace.jobs.size());
  for (std::size_t k = 0; k < trace.intervals.size(); ++k) {
    EXPECT_EQ(imported.intervals[k].start, trace.intervals[k].start);
    EXPECT_EQ(imported.intervals[k].end, trace.intervals[k].end);
    EXPECT_EQ(imported.intervals[k].cpu_busy, trace.intervals[k].cpu_busy);
    EXPECT_EQ(imported.intervals[k].dma_busy, trace.intervals[k].dma_busy);
  }
  for (std::size_t j = 0; j < trace.jobs.size(); ++j) {
    EXPECT_EQ(imported.jobs[j].release, trace.jobs[j].release);
    EXPECT_EQ(imported.jobs[j].completion, trace.jobs[j].completion);
    EXPECT_EQ(imported.jobs[j].became_urgent, trace.jobs[j].became_urgent);
  }

  const CheckReport report = audit_trace(tasks, Protocol::kProposed, imported);
  EXPECT_TRUE(report.clean()) << render_all(report);
}

TEST(TraceAudit, CsvRoundTripKeepsAbortedFlag) {
  const TaskSet tasks = mixed_set();
  auto releases = mcs::sim::synchronous_periodic_releases(tasks, 4000);
  mcs::sim::SimOptions options;
  options.max_intervals = 20;  // stops with jobs still in flight
  const Trace trace = mcs::sim::simulate(tasks, Protocol::kProposed,
                                         std::move(releases), options);
  ASSERT_TRUE(trace.aborted);
  const CheckReport direct = audit_trace(tasks, Protocol::kProposed, trace);
  EXPECT_TRUE(direct.clean()) << render_all(direct);

  std::ostringstream intervals;
  std::ostringstream jobs;
  mcs::sim::export_intervals_csv(tasks, trace, intervals);
  mcs::sim::export_jobs_csv(tasks, trace, jobs);
  std::istringstream intervals_in(intervals.str());
  std::istringstream jobs_in(jobs.str());
  const Trace imported =
      mcs::sim::import_trace_csv(tasks, intervals_in, jobs_in);

  EXPECT_TRUE(imported.aborted);
  ASSERT_EQ(imported.intervals.size(), trace.intervals.size());
  bool in_flight = false;
  for (const auto& job : imported.jobs) {
    in_flight |= !job.completed();
  }
  ASSERT_TRUE(in_flight);
  const CheckReport report = audit_trace(tasks, Protocol::kProposed, imported);
  EXPECT_FALSE(report.has_rule("MCS-P012")) << render_all(report);
  EXPECT_TRUE(report.clean()) << render_all(report);
}

TEST(TraceAudit, MalformedCsvThrows) {
  const TaskSet tasks = mixed_set();
  {
    std::istringstream intervals("header\n1,2,3\n");
    std::istringstream jobs("header\n");
    EXPECT_THROW(mcs::sim::import_trace_csv(tasks, intervals, jobs),
                 mcs::sim::TraceParseError);
  }
  {
    std::istringstream intervals("header\n");
    std::istringstream jobs("header\nghost,0,0,0,0,0,0,0,0,0,0\n");
    EXPECT_THROW(mcs::sim::import_trace_csv(tasks, intervals, jobs),
                 mcs::sim::TraceParseError);
  }
  {
    std::istringstream intervals("header\n# finished\n");
    std::istringstream jobs("header\n");
    EXPECT_THROW(mcs::sim::import_trace_csv(tasks, intervals, jobs),
                 mcs::sim::TraceParseError);
  }
}

// ---------------------------------------------------------------------------
// Negative direction: corrupt a genuine trace and expect the matching rule.

struct Corrupted {
  TaskSet tasks = mixed_set();
  Trace trace = run(tasks, Protocol::kProposed);

  CheckReport audit() const {
    return audit_trace(tasks, Protocol::kProposed, trace);
  }
};

TEST(TraceAuditNegative, BaselineIsClean) {
  Corrupted c;
  const CheckReport report = c.audit();
  ASSERT_TRUE(report.clean()) << render_all(report);
}

TEST(TraceAuditNegative, OverlappingIntervalsFire001) {
  // Gaps between busy windows are legal (the machine may idle); overlap
  // with the predecessor is not.
  Corrupted c;
  ASSERT_GE(c.trace.intervals.size(), 2u);
  c.trace.intervals[1].start -= 1;
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P001")) << render_all(report);
}

TEST(TraceAuditNegative, WrongIntervalLengthFires002) {
  Corrupted c;
  ASSERT_FALSE(c.trace.intervals.empty());
  for (auto& rec : c.trace.intervals) {
    if (rec.cpu_action == CpuAction::kExecute) {
      rec.cpu_busy += 37;  // length no longer max(cpu, dma)
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P002")) << render_all(report);
}

TEST(TraceAuditNegative, WrongDmaAccountingFires003) {
  Corrupted c;
  for (auto& rec : c.trace.intervals) {
    if (rec.copy_in_outcome == CopyInOutcome::kCompleted) {
      rec.copy_in_duration += 1;  // no longer the task's l_i
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P003")) << render_all(report);
}

TEST(TraceAuditNegative, UnjustifiedCancellationFires004) {
  Corrupted c;
  // Forge a cancellation in an interval that completed its copy-in: no LS
  // release justifies it.
  for (auto& rec : c.trace.intervals) {
    if (rec.copy_in_outcome == CopyInOutcome::kCompleted &&
        rec.copy_in_job.has_value()) {
      rec.copy_in_outcome = CopyInOutcome::kDiscarded;
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P004")) << render_all(report);
}

TEST(TraceAuditNegative, UrgentNonLsTaskFires005) {
  Corrupted c;
  // Claim a non-LS job went urgent (jobs of task "c", index 3, are NLS).
  for (auto& job : c.trace.jobs) {
    if (!c.tasks[job.id.task].latency_sensitive) {
      job.became_urgent = true;
      const CheckReport report = c.audit();
      EXPECT_TRUE(report.has_rule("MCS-P005")) << render_all(report);
      return;
    }
  }
  FAIL() << "no non-LS job in trace";
}

TEST(TraceAuditNegative, DuplicateExecutionFires011) {
  Corrupted c;
  // Duplicate a completed job's execution interval at the trace tail: the
  // per-job accounting sees two executions.
  for (const auto& rec : c.trace.intervals) {
    if (rec.cpu_action != CpuAction::kIdle && rec.cpu_job.has_value()) {
      auto dup = rec;
      const auto& last = c.trace.intervals.back();
      dup.index = last.index + 1;
      dup.start = last.end;
      dup.end = dup.start + (rec.end - rec.start);
      dup.copy_out_job.reset();
      dup.copy_in_job.reset();
      dup.copy_in_outcome = CopyInOutcome::kNone;
      dup.dma_busy = 0;
      c.trace.intervals.push_back(dup);
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P011")) << render_all(report);
}

TEST(TraceAuditNegative, InconsistentJobTimelineFires012) {
  Corrupted c;
  for (auto& job : c.trace.jobs) {
    if (job.completion != mcs::rt::kTimeMax) {
      job.exec_start = job.completion + 5;  // executes after completing
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P012")) << render_all(report);
}

/// Claims that job (task, seq) was released and ready at t = 0.  Its
/// waiting window then spans every interval in which a lower-priority job
/// executed before it — far more than Properties 3/4 allow.
CheckReport audit_with_early_release(Corrupted& c, mcs::rt::TaskIndex task,
                                     std::uint64_t seq) {
  for (auto& job : c.trace.jobs) {
    if (job.id == mcs::sim::JobId{task, seq}) {
      EXPECT_GT(job.release, 0);
      job.release = 0;
      job.ready_time = 0;
    }
  }
  return c.audit();
}

TEST(TraceAuditNegative, ExcessiveBlockingFires010) {
  Corrupted c;  // task 1 ("a") is NLS, with "b" and "c" below it
  const CheckReport report = audit_with_early_release(c, 1, 10);
  EXPECT_TRUE(report.has_rule("MCS-P010")) << render_all(report);
}

TEST(TraceAuditNegative, ExcessiveLsBlockingFires009) {
  Corrupted c;  // task 0 ("s") is LS, with "a", "b" and "c" below it
  const CheckReport report = audit_with_early_release(c, 0, 10);
  EXPECT_TRUE(report.has_rule("MCS-P009")) << render_all(report);
}

// ---------------------------------------------------------------------------
// Two jobs released together at t=0 (A above B, both NLS): the smallest
// trace with a copy-in, an execution and a copy-out per job.

TaskSet two_tasks() {
  Task a = make_task("A", 5, 2, 100, 100, 0);
  a.copy_out = 1;
  Task b = a;
  b.name = "B";
  b.priority = 1;
  return TaskSet({a, b});
}

struct TwoJobs {
  TaskSet tasks = two_tasks();
  Trace trace = mcs::sim::simulate(
      tasks, Protocol::kProposed,
      {{mcs::sim::JobId{0, 0}, 0}, {mcs::sim::JobId{1, 0}, 0}});

  CheckReport audit(Protocol protocol = Protocol::kProposed) const {
    return audit_trace(tasks, protocol, trace);
  }
};

TEST(TraceAuditNegative, TwoJobBaselineIsClean) {
  TwoJobs c;
  ASSERT_EQ(c.trace.jobs.size(), 2u);
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.clean()) << render_all(report);
}

TEST(TraceAuditNegative, TwoJobOverlapFires001) {
  TwoJobs c;
  c.trace.intervals[1].start -= 1;  // now overlaps interval 0
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P001")) << render_all(report);
}

TEST(TraceAuditNegative, ShortDmaBusyFires002And003) {
  TwoJobs c;
  c.trace.intervals[0].dma_busy -= 1;  // breaks R6 and the DMA accounting
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P002")) << render_all(report);
  EXPECT_TRUE(report.has_rule("MCS-P003")) << render_all(report);
}

TEST(TraceAuditNegative, MissingCopyInFires007) {
  TwoJobs c;
  // Erase the copy-in record that precedes the first execution.
  for (auto& rec : c.trace.intervals) {
    if (rec.copy_in_outcome == CopyInOutcome::kCompleted) {
      rec.copy_in_job.reset();
      rec.copy_in_outcome = CopyInOutcome::kNone;
      rec.copy_in_duration = 0;
      rec.dma_busy = rec.copy_out_duration;
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P007")) << render_all(report);
}

TEST(TraceAuditNegative, MissingCopyOutFires008) {
  TwoJobs c;
  for (auto& rec : c.trace.intervals) {
    if (rec.copy_out_job) {
      rec.copy_out_job.reset();
      break;
    }
  }
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P008")) << render_all(report);
}

TEST(TraceAuditNegative, UrgentUnderWpFires005) {
  TwoJobs c;
  for (auto& rec : c.trace.intervals) {
    if (rec.cpu_action == CpuAction::kExecute) {
      rec.cpu_action = CpuAction::kUrgentExecute;
      break;
    }
  }
  const CheckReport report = c.audit(Protocol::kWasilyPellizzoni);
  EXPECT_TRUE(report.has_rule("MCS-P005")) << render_all(report);
}

TEST(TraceAuditNegative, CancellationUnderWpFires004) {
  TwoJobs c;
  for (auto& rec : c.trace.intervals) {
    if (rec.copy_in_outcome == CopyInOutcome::kCompleted) {
      rec.copy_in_outcome = CopyInOutcome::kDiscarded;
      break;
    }
  }
  const CheckReport report = c.audit(Protocol::kWasilyPellizzoni);
  EXPECT_TRUE(report.has_rule("MCS-P004")) << render_all(report);
}

TEST(TraceAuditNegative, CompletionMismatchFires008) {
  TwoJobs c;
  c.trace.jobs[0].completion += 3;  // no longer matches its copy-out record
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P008")) << render_all(report);
}

TEST(TraceAuditNegative, ExecutionBeforeReadyFires012) {
  TwoJobs c;
  c.trace.jobs[1].ready_time = c.trace.jobs[1].exec_start + 1;
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P012")) << render_all(report);
}

TEST(TraceAuditNegative, UnfinishedJobFires012UnlessAborted) {
  // Drop the last job's execution and copy-out: the trace claims to have
  // run to completion, yet the job never finished.
  TwoJobs c;
  auto& job = c.trace.jobs[1];
  while (c.trace.intervals.back().copy_out_job != job.id) {
    c.trace.intervals.pop_back();
  }
  c.trace.intervals.pop_back();
  job.completion = mcs::rt::kTimeMax;
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P012")) << render_all(report);

  // The same trace cut short by the interval budget is legitimate: the job
  // is still waiting for its copy-out.
  c.trace.aborted = true;
  const CheckReport cut = c.audit();
  EXPECT_TRUE(cut.clean()) << render_all(cut);
}

TEST(TraceAuditNegative, DuplicateCopyOutInAbortedTraceFires011) {
  // An aborted trace still audits its completed jobs.
  TwoJobs c;
  c.trace.aborted = true;
  auto dup = c.trace.intervals.back();
  ASSERT_TRUE(dup.copy_out_job.has_value());
  dup.index += 1;
  dup.start = c.trace.intervals.back().end;
  dup.end = dup.start + dup.copy_out_duration;
  c.trace.intervals.push_back(dup);
  const CheckReport report = c.audit();
  EXPECT_TRUE(report.has_rule("MCS-P011")) << render_all(report);
}

}  // namespace
