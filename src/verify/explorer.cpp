#include "verify/explorer.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "support/contracts.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"

namespace mcs::verify {

namespace {

using rt::TaskIndex;
using rt::Time;
using sim::CopyInOutcome;
using sim::CpuAction;
using sim::IntervalStepper;
using sim::JobRef;
using check::Severity;

constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

/// Where a task's in-flight job sits between two intervals.
enum Slot : std::int64_t {
  kSlotNone = 0,
  kSlotReady = 1,
  kSlotLoaded = 2,
  kSlotPendingCopyOut = 3,
  kSlotUrgent = 4,
};

/// Release choice point of one task: the next release is base + k*L for
/// some k in [k_min, K], K = offset_steps for the first release and
/// jitter_steps afterwards; a point at/after the horizon closes the task.
struct TaskChoice {
  bool closed = false;
  bool first = true;
  Time base = 0;
  std::uint32_t k_min = 0;
};

/// Check bookkeeping that must survive across transitions (and therefore
/// belongs to the canonical state).
struct CheckerState {
  /// Per task: blocking intervals suffered by the task's current front job
  /// (the in-flight job, or the next committed job if none is in flight).
  std::vector<std::uint32_t> blocked;
  std::uint32_t zero_run = 0;  ///< consecutive zero-length intervals
};

/// One successor produced by expanding a node.
struct Succ {
  std::string enc;  ///< canonical encoding (empty on violation)
  Edge edge;
  check::CheckReport report;  ///< non-clean marks a violating transition
  /// (task, response) of completions on this transition, for WCRT folding.
  std::vector<std::pair<TaskIndex, Time>> completions;
};

struct Node {
  std::uint32_t parent = kNoParent;
  Edge edge;
};

void append_i64(std::string& out, std::int64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

std::int64_t read_i64(const std::string& in, std::size_t& pos) {
  MCS_ASSERT(pos + sizeof(std::int64_t) <= in.size(),
             "state decode: truncated encoding");
  std::int64_t v = 0;
  std::memcpy(&v, in.data() + pos, sizeof v);
  pos += sizeof v;
  return v;
}

std::uint32_t jitter_span(const ChoiceModel& model, const TaskChoice& choice) {
  return choice.first ? model.offset_steps : model.jitter_steps;
}

Time window_min(const ChoiceModel& model, const TaskChoice& choice) {
  return choice.base + static_cast<Time>(choice.k_min) * model.lattice;
}

/// Folds "all remaining choices fall at/after the horizon" into `closed`.
void normalize(const ChoiceModel& model, TaskChoice& choice) {
  if (choice.closed) {
    choice.first = false;
    choice.base = 0;
    choice.k_min = 0;
    return;
  }
  if (window_min(model, choice) >= model.horizon) {
    choice.closed = true;
    choice.first = false;
    choice.base = 0;
    choice.k_min = 0;
  }
}

/// Canonical encoding of (stepper state, choice fronts, checker state).
/// The stepper must be admitted up to `now` (IntervalStepper::admit_now)
/// so that logically identical states cannot differ in queued-vs-ready
/// classification.  Sequence numbers and completed-job history are
/// intentionally dropped: priorities are unique per task, so they can
/// never influence future scheduling decisions.
std::string encode(const rt::TaskSet& tasks, const IntervalStepper& stepper,
                   const std::vector<TaskChoice>& choices,
                   const CheckerState& checker) {
  const sim::StepState& st = stepper.state();
  const std::size_t n = tasks.size();

  std::vector<std::int64_t> slot(n, kSlotNone);
  std::vector<JobRef> inflight(n, 0);
  const auto place = [&](JobRef j, Slot s) {
    const TaskIndex t = st.jobs[j].id.task;
    MCS_ASSERT(slot[t] == kSlotNone, "state encode: two in-flight jobs");
    slot[t] = s;
    inflight[t] = j;
  };
  for (const JobRef j : st.ready) place(j, kSlotReady);
  if (st.loaded) place(*st.loaded, kSlotLoaded);
  if (st.pending_copyout) place(*st.pending_copyout, kSlotPendingCopyOut);
  if (st.urgent) place(*st.urgent, kSlotUrgent);

  std::string out;
  out.reserve((3 + n * 10) * sizeof(std::int64_t));
  append_i64(out, st.now);
  append_i64(out, st.intervals > 0 ? 1 : 0);
  append_i64(out, checker.zero_run);
  for (TaskIndex t = 0; t < n; ++t) {
    const TaskChoice& c = choices[t];
    append_i64(out, c.closed ? 1 : 0);
    append_i64(out, c.first ? 1 : 0);
    append_i64(out, c.base);
    append_i64(out, c.k_min);
    const sim::TaskProgress& progress = st.tasks[t];
    append_i64(out, progress.last_completion);
    append_i64(out, slot[t]);
    if (slot[t] != kSlotNone) {
      const sim::JobRecord& job = st.jobs[inflight[t]];
      append_i64(out, job.release);
      append_i64(out, job.copy_in_cancellations);
    } else {
      append_i64(out, 0);
      append_i64(out, 0);
    }
    append_i64(out, checker.blocked[t]);
    MCS_ASSERT(progress.next <= progress.queue.size(),
               "state encode: admission cursor out of range");
    append_i64(out,
               static_cast<std::int64_t>(progress.queue.size() - progress.next));
    for (std::size_t q = progress.next; q < progress.queue.size(); ++q) {
      append_i64(out, st.jobs[progress.queue[q]].release);
    }
  }
  return out;
}

/// Rebuilds a stepper state (plus choices and checker state) from its
/// canonical encoding.  Synthetic sequence numbers are assigned; they are
/// future-irrelevant (see encode).
void decode(const rt::TaskSet& tasks, const std::string& enc,
            IntervalStepper& stepper, std::vector<TaskChoice>& choices,
            CheckerState& checker) {
  const std::size_t n = tasks.size();
  choices.assign(n, TaskChoice{});
  checker.blocked.assign(n, 0);

  sim::StepState st;
  st.tasks.resize(n);

  std::size_t pos = 0;
  st.now = read_i64(enc, pos);
  st.intervals = static_cast<std::size_t>(read_i64(enc, pos));
  checker.zero_run = static_cast<std::uint32_t>(read_i64(enc, pos));
  for (TaskIndex t = 0; t < n; ++t) {
    TaskChoice& c = choices[t];
    c.closed = read_i64(enc, pos) != 0;
    c.first = read_i64(enc, pos) != 0;
    c.base = read_i64(enc, pos);
    c.k_min = static_cast<std::uint32_t>(read_i64(enc, pos));
    sim::TaskProgress& progress = st.tasks[t];
    progress.last_completion = read_i64(enc, pos);
    const auto slot = static_cast<Slot>(read_i64(enc, pos));
    const Time inflight_release = read_i64(enc, pos);
    const auto inflight_cancels =
        static_cast<std::uint32_t>(read_i64(enc, pos));
    checker.blocked[t] = static_cast<std::uint32_t>(read_i64(enc, pos));
    if (slot != kSlotNone) {
      sim::JobRecord job;
      job.id = sim::JobId{t, 0};
      job.release = inflight_release;
      job.ready_time = std::max(inflight_release, progress.last_completion);
      job.absolute_deadline = inflight_release + tasks[t].deadline;
      job.copy_in_cancellations = inflight_cancels;
      const JobRef ref = st.jobs.size();
      st.jobs.push_back(job);
      progress.queue.push_back(ref);
      progress.busy = true;
      switch (slot) {
        case kSlotReady:
          st.ready.push_back(ref);
          break;
        case kSlotLoaded:
          MCS_ASSERT(!st.loaded, "state decode: two loaded jobs");
          st.loaded = ref;
          break;
        case kSlotPendingCopyOut:
          MCS_ASSERT(!st.pending_copyout, "state decode: two copy-outs");
          st.pending_copyout = ref;
          break;
        case kSlotUrgent:
          MCS_ASSERT(!st.urgent, "state decode: two urgent jobs");
          st.urgent = ref;
          break;
        case kSlotNone:
          break;
      }
    }
    const auto queued = static_cast<std::size_t>(read_i64(enc, pos));
    for (std::size_t q = 0; q < queued; ++q) {
      sim::JobRecord job;
      // Seqs are contiguous from 0, so a later add_release can use
      // queue.size() as the next seq.
      job.id = sim::JobId{t, progress.queue.size()};
      job.release = read_i64(enc, pos);
      job.absolute_deadline = job.release + tasks[t].deadline;
      const JobRef ref = st.jobs.size();
      st.jobs.push_back(job);
      progress.queue.push_back(ref);
    }
    progress.next = progress.busy ? 1 : 0;
  }
  MCS_ASSERT(pos == enc.size(), "state decode: trailing bytes");

  // Ready order: priorities are unique, so sorting by priority reproduces
  // the stepper's (priority, seq) order.
  std::sort(st.ready.begin(), st.ready.end(), [&](JobRef a, JobRef b) {
    return tasks[st.jobs[a].id.task].priority <
           tasks[st.jobs[b].id.task].priority;
  });
  stepper.restore(std::move(st));
}

/// Everything expand() needs; shared read-only across worker threads.
struct ExpandContext {
  const rt::TaskSet& tasks;
  sim::Protocol protocol;
  const ExploreOptions& options;
};

std::string interval_object(const sim::IntervalRecord& rec) {
  return "interval [" + std::to_string(rec.start) + ", " +
         std::to_string(rec.end) + ")";
}

std::string job_object(const rt::TaskSet& tasks, const sim::JobId& id) {
  return "job " + tasks[id.task].name + "#" + std::to_string(id.seq);
}

/// Pre-step facts the transition checks compare the step record against.
struct PreStep {
  Time now = 0;
  std::optional<sim::JobId> loaded;
  std::optional<sim::JobId> pending_copyout;
  std::optional<sim::JobId> urgent;
};

/// Checks one interval transition against rules MCS-V001..V010 (except the
/// stuck/deadlock rule V005, which is a property of refusing transitions).
/// Updates the per-task blocking counters and the zero-run counter.
void check_step(const ExpandContext& ctx, const PreStep& pre,
                const sim::StepOutcome& out, const IntervalStepper& post,
                CheckerState& checker, Succ& succ) {
  const rt::TaskSet& tasks = ctx.tasks;
  const sim::IntervalRecord& rec = out.record;
  const sim::StepState& st = post.state();
  check::CheckReport& report = succ.report;
  const std::string where = interval_object(rec);
  const bool ls_rules = ctx.protocol == sim::Protocol::kProposed;

  // MCS-V001 / V010: the CPU may only run what the previous interval
  // loaded (R5) or what R4 promoted, back to back.
  if (rec.cpu_action == CpuAction::kExecute) {
    if (!pre.loaded || !(*pre.loaded == *rec.cpu_job)) {
      report.add("MCS-V001", Severity::kError, where,
                 "CPU executes " + job_object(tasks, *rec.cpu_job) +
                     " without a completed copy-in in the adjacent "
                     "previous interval");
    }
  } else if (rec.cpu_action == CpuAction::kUrgentExecute) {
    if (!pre.urgent || !(*pre.urgent == *rec.cpu_job)) {
      report.add("MCS-V010", Severity::kError, where,
                 "urgent execution of " + job_object(tasks, *rec.cpu_job) +
                     " without an R4 promotion in the previous interval");
    }
  }
  if ((pre.loaded || pre.pending_copyout || pre.urgent) &&
      rec.start != pre.now) {
    report.add("MCS-V001", Severity::kError, where,
               "interval is not adjacent to its predecessor despite "
               "carried-over work");
  }

  // MCS-V009: R2/R5/R6 busy-time accounting against the task parameters.
  const auto structural = [&](const std::string& message) {
    report.add("MCS-V009", Severity::kError, where, message);
  };
  if (rec.end - rec.start != std::max(rec.cpu_busy, rec.dma_busy)) {
    structural("interval length != max(cpu busy, dma busy) (R6)");
  }
  if (rec.dma_busy != rec.copy_out_duration + rec.copy_in_duration) {
    structural("DMA busy time != copy-out + copy-in durations (R2)");
  }
  if (rec.copy_out_job) {
    if (rec.copy_out_duration != tasks[rec.copy_out_job->task].copy_out) {
      structural("copy-out duration differs from the task's u parameter");
    }
  } else if (rec.copy_out_duration != 0) {
    structural("copy-out time without a copy-out job");
  }
  if (rec.copy_in_job) {
    const Time full = tasks[rec.copy_in_job->task].copy_in;
    switch (rec.copy_in_outcome) {
      case CopyInOutcome::kNone:
        structural("copy-in job recorded with outcome `none`");
        break;
      case CopyInOutcome::kCompleted:
      case CopyInOutcome::kDiscarded:
        if (rec.copy_in_duration != full) {
          structural("completed copy-in duration differs from the task's "
                     "l parameter");
        }
        break;
      case CopyInOutcome::kCancelled:
        if (rec.copy_in_duration >= full) {
          structural("cancelled copy-in spent the full transfer time");
        }
        break;
    }
  } else if (rec.copy_in_outcome != CopyInOutcome::kNone ||
             rec.copy_in_duration != 0) {
    structural("copy-in time or outcome without a copy-in job");
  }
  switch (rec.cpu_action) {
    case CpuAction::kIdle:
      if (rec.cpu_busy != 0 || rec.cpu_job) {
        structural("idle CPU with busy time or a job");
      }
      break;
    case CpuAction::kExecute:
      if (!rec.cpu_job || rec.cpu_busy != tasks[rec.cpu_job->task].exec) {
        structural("execution busy time differs from the task's C "
                   "parameter (R5)");
      }
      break;
    case CpuAction::kUrgentExecute:
      if (!rec.cpu_job ||
          rec.cpu_busy != tasks[rec.cpu_job->task].copy_in +
                              tasks[rec.cpu_job->task].exec) {
        structural("urgent busy time differs from the task's l + C (R5)");
      }
      break;
  }

  // MCS-V002 / MCS-V008: completion events.  A completion must be the end
  // of this interval's copy-out, adjacent to the execution interval; its
  // response time must stay within the analysis bound.
  for (const JobRef j : out.completed) {
    const sim::JobRecord& job = st.jobs[j];
    const std::string object = job_object(tasks, job.id);
    if (!rec.copy_out_job || !(*rec.copy_out_job == job.id)) {
      report.add("MCS-V002", Severity::kError, object,
                 "completion without a copy-out phase in the interval "
                 "adjacent to its execution");
    } else if (job.completion != rec.start + rec.copy_out_duration) {
      report.add("MCS-V002", Severity::kError, object,
                 "completion time is not the end of the copy-out phase");
    }
    const Time response = job.completion - job.release;
    const TaskIndex t = job.id.task;
    if (t < ctx.options.bounds.size() &&
        ctx.options.bounds[t] != rt::kTimeMax &&
        response > ctx.options.bounds[t]) {
      report.add("MCS-V008", Severity::kError, object,
                 "exhaustive response time " + std::to_string(response) +
                     " exceeds the analysis bound " +
                     std::to_string(ctx.options.bounds[t]));
    }
    succ.completions.emplace_back(t, response);
    checker.blocked[t] = 0;  // the task's front job changed
  }

  // MCS-V007: R3 bookkeeping — a cancellation must answer to a
  // higher-priority LS release inside the interval (window semantics as in
  // check::audit_trace MCS-P004), and only the proposed protocol cancels.
  if (rec.copy_in_outcome == CopyInOutcome::kCancelled ||
      rec.copy_in_outcome == CopyInOutcome::kDiscarded) {
    const std::string object =
        rec.copy_in_job ? job_object(tasks, *rec.copy_in_job) : where;
    if (!ls_rules) {
      report.add("MCS-V007", Severity::kError, object,
                 "copy-in cancellation under a protocol without R3");
    } else if (rec.copy_in_job) {
      const auto cancelled_prio = tasks[rec.copy_in_job->task].priority;
      const Time upto =
          rec.copy_in_outcome == CopyInOutcome::kCancelled
              ? rec.start + rec.copy_out_duration + rec.copy_in_duration
              : rec.end - 1;
      bool justified = false;
      for (const sim::JobRecord& job : st.jobs) {
        const rt::Task& t = tasks[job.id.task];
        if (!t.latency_sensitive || t.priority >= cancelled_prio) continue;
        if (job.release > rec.start && job.release <= upto) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        report.add("MCS-V007", Severity::kError, object,
                   "copy-in cancellation has no justifying "
                   "higher-priority LS release inside the interval");
      }
    }
  }

  // MCS-V010: R4 — a promotion performed by this interval must pick an LS
  // job released within (start, end], and only under the proposed rules.
  if (st.urgent) {
    const sim::JobRecord& job = st.jobs[*st.urgent];
    const std::string object = job_object(tasks, job.id);
    if (!ls_rules) {
      report.add("MCS-V010", Severity::kError, object,
                 "urgent promotion under a protocol without R4");
    } else if (!tasks[job.id.task].latency_sensitive) {
      report.add("MCS-V010", Severity::kError, object,
                 "urgent promotion of a non-latency-sensitive job");
    } else if (job.release <= rec.start || job.release > rec.end) {
      report.add("MCS-V010", Severity::kError, object,
                 "urgent promotion of a job not released within the "
                 "promoting interval");
    }
  }

  // MCS-V003 / MCS-V004: blocking accounting (Properties 3-4).  For every
  // task whose front job is released but has not started executing, this
  // interval counts as blocking iff a strictly lower-priority job occupied
  // the CPU past the front job's ready time.  The window semantics mirror
  // check::audit_trace MCS-P009/P010; counting the not-yet-admitted front
  // job too (ready time = its release when the predecessor has completed)
  // keeps the count identical to the post-hoc audit.
  if (rec.cpu_job && rec.cpu_busy > 0) {
    const auto cpu_prio = tasks[rec.cpu_job->task].priority;
    const Time cpu_end = rec.start + rec.cpu_busy;
    std::vector<std::int64_t> slot(tasks.size(), kSlotNone);
    std::vector<JobRef> front(tasks.size(), 0);
    for (const JobRef j : st.ready) {
      slot[st.jobs[j].id.task] = kSlotReady;
      front[st.jobs[j].id.task] = j;
    }
    if (st.loaded) {
      slot[st.jobs[*st.loaded].id.task] = kSlotLoaded;
      front[st.jobs[*st.loaded].id.task] = *st.loaded;
    }
    if (st.urgent) {
      slot[st.jobs[*st.urgent].id.task] = kSlotUrgent;
      front[st.jobs[*st.urgent].id.task] = *st.urgent;
    }
    for (TaskIndex t = 0; t < tasks.size(); ++t) {
      if (tasks[t].priority >= cpu_prio) continue;  // not higher priority
      Time ready_time = rt::kTimeMax;
      if (slot[t] != kSlotNone) {
        const sim::JobRecord& job = st.jobs[front[t]];
        if (job.ready_time != job.release) continue;  // deferred readiness
        ready_time = job.ready_time;
      } else {
        // Next committed-but-unadmitted job, if its readiness will not be
        // deferred by a predecessor still in flight.
        const sim::TaskProgress& progress = st.tasks[t];
        if (progress.busy || progress.next >= progress.queue.size()) {
          continue;
        }
        const sim::JobRecord& job = st.jobs[progress.queue[progress.next]];
        if (progress.last_completion > job.release) continue;
        ready_time = job.release;
      }
      if (cpu_end <= ready_time) continue;
      checker.blocked[t] += 1;
      const bool ls = ls_rules && tasks[t].latency_sensitive;
      const std::uint32_t limit = ls ? 1 : 2;
      if (checker.blocked[t] > limit) {
        report.add(ls ? "MCS-V004" : "MCS-V003", Severity::kError,
                   "task " + tasks[t].name,
                   (ls ? std::string("latency-sensitive job blocked in ")
                       : std::string("job blocked in ")) +
                       std::to_string(checker.blocked[t]) +
                       " intervals (limit " + std::to_string(limit) + ")");
      }
    }
  }

  // MCS-V006: livelock — zero-length intervals must not repeat unboundedly.
  if (rec.end == rec.start) {
    checker.zero_run += 1;
    if (checker.zero_run > ctx.options.max_zero_length_run) {
      report.add("MCS-V006", Severity::kError, where,
                 "no time progress within " +
                     std::to_string(checker.zero_run) +
                     " consecutive zero-length intervals");
    }
  } else {
    checker.zero_run = 0;
  }
}

/// Expands one canonical state into its successor transitions.
std::vector<Succ> expand(const ExpandContext& ctx, const std::string& enc) {
  const rt::TaskSet& tasks = ctx.tasks;
  const ChoiceModel& model = ctx.options.model;
  std::vector<Succ> succs;

  IntervalStepper stepper(tasks, ctx.protocol, ctx.options.mutation);
  std::vector<TaskChoice> choices;
  CheckerState checker;
  decode(tasks, enc, stepper, choices, checker);

  const sim::StepPreview preview = stepper.preview();

  // Earliest open release window.
  TaskIndex branch_task = tasks.size();
  Time earliest = rt::kTimeMax;
  for (TaskIndex t = 0; t < tasks.size(); ++t) {
    if (choices[t].closed) continue;
    const Time wmin = window_min(model, choices[t]);
    if (wmin < earliest) {
      earliest = wmin;
      branch_task = t;
    }
  }

  const bool must_branch =
      branch_task < tasks.size() &&
      (!preview.has_event || earliest <= preview.end_upper_bound);

  if (must_branch) {
    // Resolve one release choice point.  Branches: commit at each lattice
    // point up to the decision horizon H, or constrain the release past H
    // (which may close the task when nothing remains before the horizon).
    // The union of the branches covers every choice the model admits.
    const Time H = preview.has_event ? preview.end_upper_bound : earliest;
    const TaskChoice& c = choices[branch_task];
    const std::uint32_t span = jitter_span(model, c);
    const sim::StepState base_state = stepper.snapshot();

    std::uint32_t defer_k = span + 1;  // first point past H, if any
    for (std::uint32_t k = c.k_min; k <= span; ++k) {
      const Time p = c.base + static_cast<Time>(k) * model.lattice;
      if (p > H) {
        defer_k = std::min(defer_k, k);
        continue;
      }
      if (p >= model.horizon) continue;  // covered by the closing branch
      Succ succ;
      succ.edge = Edge{Edge::Kind::kRelease, branch_task, p};
      stepper.restore(base_state);
      const std::uint64_t seq =
          stepper.state().tasks[branch_task].queue.size();
      stepper.add_release(sim::JobId{branch_task, seq}, p);
      stepper.admit_now();
      std::vector<TaskChoice> next = choices;
      next[branch_task].closed = false;
      next[branch_task].first = false;
      next[branch_task].base = p + tasks[branch_task].period;
      next[branch_task].k_min = 0;
      normalize(model, next[branch_task]);
      succ.enc = encode(tasks, stepper, next, checker);
      succs.push_back(std::move(succ));
    }
    const Time last_point =
        c.base + static_cast<Time>(span) * model.lattice;
    if (defer_k <= span &&
        c.base + static_cast<Time>(defer_k) * model.lattice < model.horizon) {
      // Some choices land strictly after H but before the horizon: keep
      // them open with a raised floor.
      Succ succ;
      succ.edge = Edge{Edge::Kind::kDefer, branch_task, H};
      stepper.restore(base_state);
      std::vector<TaskChoice> next = choices;
      next[branch_task].k_min = defer_k;
      normalize(model, next[branch_task]);
      succ.enc = encode(tasks, stepper, next, checker);
      succs.push_back(std::move(succ));
    }
    if (last_point >= model.horizon) {
      // Some choices land at/after the horizon: the task may stop
      // releasing within the explored window.
      Succ succ;
      succ.edge = Edge{Edge::Kind::kDefer, branch_task, model.horizon};
      stepper.restore(base_state);
      std::vector<TaskChoice> next = choices;
      next[branch_task].closed = true;
      normalize(model, next[branch_task]);
      succ.enc = encode(tasks, stepper, next, checker);
      succs.push_back(std::move(succ));
    }
    MCS_ASSERT(!succs.empty(), "release branching produced no successor");
    return succs;
  }

  if (!preview.has_event) {
    return succs;  // leaf: nothing committed, nothing open — path done
  }

  // Step one scheduling interval.  Every open window now provably starts
  // after this interval's end bound, so its R2-R5 decisions cannot depend
  // on an uncommitted release.
  PreStep pre;
  pre.now = stepper.state().now;
  const auto id_of = [&](const std::optional<JobRef>& j) {
    return j ? std::optional<sim::JobId>(stepper.state().jobs[*j].id)
             : std::nullopt;
  };
  pre.loaded = id_of(stepper.state().loaded);
  pre.pending_copyout = id_of(stepper.state().pending_copyout);
  pre.urgent = id_of(stepper.state().urgent);

  Succ succ;
  succ.edge = Edge{Edge::Kind::kStep, 0, 0};
  const std::optional<sim::StepOutcome> out = stepper.step();
  if (!out) {
    // Refusing to schedule with committed work pending is a deadlock.
    if (stepper.has_pending_work()) {
      succ.report.add("MCS-V005", Severity::kError,
                      "t=" + std::to_string(stepper.state().now),
                      "stuck reachable state: committed work pending but "
                      "no transition enabled");
      succs.push_back(std::move(succ));
    }
    return succs;
  }
  stepper.admit_now();
  check_step(ctx, pre, *out, stepper, checker, succ);
  if (succ.report.clean()) {
    succ.enc = encode(tasks, stepper, choices, checker);
  }
  succs.push_back(std::move(succ));
  return succs;
}

}  // namespace

ExploreResult explore(const rt::TaskSet& tasks, sim::Protocol protocol,
                      const ExploreOptions& options) {
  MCS_REQUIRE(protocol != sim::Protocol::kNonPreemptive,
              "explore: interval protocols only");
  MCS_REQUIRE(!tasks.empty(), "explore: empty task set");
  MCS_REQUIRE(options.model.horizon > 0, "explore: horizon must be positive");
  MCS_REQUIRE(options.model.lattice > 0, "explore: lattice must be positive");
  MCS_REQUIRE(options.bounds.empty() || options.bounds.size() == tasks.size(),
              "explore: bounds size mismatch");

  ExploreResult result;
  result.exact_wcrt.assign(tasks.size(), 0);

  ExpandContext ctx{tasks, protocol, options};

  // Node table: canonical encoding -> id.  The map owns the encodings;
  // unordered_map nodes are address-stable, so by_id can point into them.
  std::unordered_map<std::string, std::uint32_t, support::BytesHash> seen;
  std::vector<const std::string*> by_id;
  std::vector<Node> nodes;

  {
    IntervalStepper root_stepper(tasks, protocol, options.mutation);
    std::vector<TaskChoice> root_choices(tasks.size());
    for (TaskChoice& c : root_choices) normalize(options.model, c);
    CheckerState root_checker;
    root_checker.blocked.assign(tasks.size(), 0);
    std::string root_enc =
        encode(tasks, root_stepper, root_choices, root_checker);
    const auto [it, inserted] = seen.emplace(std::move(root_enc), 0u);
    MCS_ASSERT(inserted, "root state duplicated");
    by_id.push_back(&it->first);
    nodes.push_back(Node{});
  }
  result.states = 1;

  std::vector<std::uint32_t> frontier{0};
  std::vector<std::vector<Succ>> expansions;

  // One pool reused across every BFS level (not one per level): worker
  // start-up would otherwise dominate the many small frontiers.
  support::ThreadPool pool(options.threads == 0 ? 0 : options.threads);

  bool violated = false;
  std::uint32_t violation_parent = kNoParent;
  Edge violation_edge;

  while (!frontier.empty() && !violated) {
    expansions.assign(frontier.size(), {});
    support::parallel_for(pool, frontier.size(), [&](std::size_t i) {
      expansions[i] = expand(ctx, *by_id[frontier[i]]);
    });

    // Serial merge in frontier index order: verdict, counterexample and
    // statistics are independent of how the pool interleaved the work.
    std::vector<std::uint32_t> next_frontier;
    for (std::size_t i = 0; i < frontier.size() && !violated; ++i) {
      for (Succ& succ : expansions[i]) {
        // Fold completions first: a violating transition's completion (an
        // MCS-V008 response above its bound) belongs in the exhaustive WCRT.
        for (const auto& [task, response] : succ.completions) {
          result.exact_wcrt[task] =
              std::max(result.exact_wcrt[task], response);
        }
        if (!succ.report.clean()) {
          violated = true;
          violation_parent = frontier[i];
          violation_edge = succ.edge;
          result.report = std::move(succ.report);
          break;
        }
        if (succ.edge.kind == Edge::Kind::kStep) {
          ++result.steps;
        } else {
          ++result.release_branches;
        }
        const auto it = seen.find(succ.enc);
        if (it != seen.end()) {
          ++result.dedup_hits;
          continue;
        }
        if (nodes.size() >= options.max_states) {
          result.truncated = true;
          continue;
        }
        const auto id = static_cast<std::uint32_t>(nodes.size());
        const auto [ins, inserted] = seen.emplace(std::move(succ.enc), id);
        MCS_ASSERT(inserted, "state inserted twice");
        by_id.push_back(&ins->first);
        nodes.push_back(Node{frontier[i], succ.edge});
        next_frontier.push_back(id);
      }
    }
    result.states = nodes.size();
    ++result.depth;
    frontier = std::move(next_frontier);
  }

  if (violated) {
    std::vector<Edge> path;
    path.push_back(violation_edge);
    for (std::uint32_t id = violation_parent; id != kNoParent && id != 0;
         id = nodes[id].parent) {
      path.push_back(nodes[id].edge);
    }
    std::reverse(path.begin(), path.end());
    result.counterexample_path = std::move(path);
    result.complete = false;
  } else {
    result.complete = !result.truncated;
  }
  return result;
}

}  // namespace mcs::verify
