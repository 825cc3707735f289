// Pins the exact output of presolve on the delay MILPs the analysis solves.
//
// Every presolved model is hashed (FNV-1a over the reduced model's
// variable bounds and types, each row's relation, rhs and ordered terms,
// the objective, the reduction log and the PostsolveMap; names are left
// out) and compared with tests/golden/presolve_digests.txt.  The corpus is
// every task of the committed workloads and of seeded task sets from each
// Figure-2 configuration, under the WP analysis (LS semantics off), the
// proposed analysis at the loaded marking, and with every task marked
// latency-sensitive, then at the loaded marking again, at each window a
// response-time fixpoint visits.  As in the analysis engine, a
// formulation is patched in place while the interval count stays (across
// windows and across marking changes), and rebuilt when it changes.
//
// Pivot and node counts (tests/golden/cli/work_counts.json) only show a
// changed reduced model indirectly; this test names the model that moved.
// On a mismatch the computed digests are written to
// presolve_digests.actual.txt in the working directory; after an intended
// change of presolve or of the formulation, copy that file over the
// golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "analysis/response_time.hpp"
#include "analysis/window.hpp"
#include "exp/figures.hpp"
#include "gen/generator.hpp"
#include "lp/milp.hpp"
#include "lp/model.hpp"
#include "lp/presolve.hpp"
#include "rt/io.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"

namespace {

using mcs::analysis::AnalysisOptions;
using mcs::analysis::DelayMilp;
using mcs::analysis::FormulationCase;
using mcs::lp::Model;
using mcs::lp::presolve::Presolved;
using mcs::rt::TaskIndex;
using mcs::rt::TaskSet;
using mcs::rt::Time;

/// 64-bit FNV-1a.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      h_ ^= p[k];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void hash_model(const Model& m, Fnv& h) {
  h.u64(m.num_variables());
  for (const auto& v : m.variables()) {
    h.f64(v.lower);
    h.f64(v.upper);
    h.u64(static_cast<std::uint64_t>(v.type));
  }
  h.u64(m.num_constraints());
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    const mcs::lp::RowView c = m.row(r);
    h.u64(static_cast<std::uint64_t>(c.relation));
    h.f64(c.rhs);
    h.u64(c.terms.size());
    for (const auto& [var, coef] : c.terms) {
      h.u64(var);
      h.f64(coef);
    }
  }
  h.u64(static_cast<std::uint64_t>(m.objective_sense()));
  h.f64(m.objective().constant());
  h.u64(m.objective().terms().size());
  for (const auto& [var, coef] : m.objective().terms()) {
    h.u64(var);
    h.f64(coef);
  }
}

std::uint64_t digest(const Presolved& pre) {
  Fnv h;
  h.u64(pre.infeasible ? 1 : 0);
  hash_model(pre.reduced, h);
  h.u64(pre.log.size());
  for (const auto& red : pre.log) {
    h.u64(static_cast<std::uint64_t>(red.kind));
    h.u64(red.index);
    h.f64(red.value);
    h.u64(red.aux);
  }
  const auto& map = pre.map;
  h.u64(map.original_cols);
  h.u64(map.original_rows);
  const auto sizes = [&](const auto& v) { h.u64(v.size()); };
  sizes(map.col_map);
  for (const std::size_t c : map.col_map) h.u64(c);
  sizes(map.fixed_value);
  for (const double v : map.fixed_value) h.f64(v);
  sizes(map.row_map);
  for (const std::size_t r : map.row_map) h.u64(r);
  sizes(map.row_scale);
  for (const double s : map.row_scale) h.f64(s);
  sizes(map.col_scale);
  for (const double s : map.col_scale) h.f64(s);
  return h.value();
}

/// One formulation slot of the analysis engine's cache.
struct Slot {
  bool valid = false;
  std::size_t intervals = 0;
  DelayMilp milp;
  std::vector<double> incumbent;
};

class DigestRecorder {
 public:
  explicit DigestRecorder(std::ostringstream* out) : out_(out) {}

  /// Runs one analysis pass over `tasks` (the engine's exact-mode
  /// fixpoint per task) and records every presolved model.  Passes over
  /// one task set share the formulation slots, as the engine's cache does
  /// across greedy rounds, so a pass after a marking change patches the
  /// formulations the previous pass left.
  void pass(const std::string& label, const TaskSet& tasks,
            bool ignore_ls) {
    const AnalysisOptions options;
    std::vector<std::array<Slot, 3>>& slots = ignore_ls ? wp_ : ls_;
    slots.resize(tasks.size());
    for (TaskIndex i = 0; i < tasks.size(); ++i) {
      fixpoint(label, tasks, i, ignore_ls, options, slots[i].data());
    }
  }

  /// Starts a new task set: no formulation carries over.
  void reset() {
    wp_.clear();
    ls_.clear();
  }

 private:
  /// Builds or patches the slot's formulation for window `t`, records its
  /// presolved digest, solves it and returns the delay bound (negative
  /// when there is none).
  double solve(const std::string& label, const TaskSet& tasks, TaskIndex i,
               Time t, FormulationCase fcase, bool ignore_ls,
               const AnalysisOptions& options, Slot& slot) {
    std::size_t intervals = 2;
    if (fcase == FormulationCase::kNls) {
      intervals = mcs::analysis::window_intervals_nls(tasks, i, t);
    } else if (fcase == FormulationCase::kLsCaseA) {
      intervals = mcs::analysis::window_intervals_ls(tasks, i, t);
    }
    const bool hit = slot.valid && slot.intervals == intervals;
    if (hit) {
      mcs::analysis::update_delay_milp(slot.milp, tasks, i, t, ignore_ls);
    } else {
      slot.milp = mcs::analysis::build_delay_milp(tasks, i, t, fcase,
                                                  ignore_ls, !ignore_ls);
      slot.valid = true;
      slot.intervals = intervals;
      slot.incumbent.clear();
    }
    const Presolved pre = mcs::lp::presolve::presolve(slot.milp.model);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest(pre)));
    *out_ << label << " task=" << i << " case=" << to_string(fcase)
          << " t=" << t << (hit ? " patched " : " built ") << hex << "\n";

    mcs::lp::MilpOptions opt = options.milp;
    opt.branch_priority.assign(slot.milp.model.num_variables(), 0);
    for (const mcs::lp::VarId alpha : slot.milp.alpha_vars) {
      opt.branch_priority[alpha.index] = 1;
    }
    if (hit) opt.start_values = slot.incumbent;
    const mcs::lp::MilpResult res = mcs::lp::solve_milp(slot.milp.model, opt);
    if (res.has_incumbent) slot.incumbent = res.values;
    const bool bounded =
        res.status == mcs::lp::SolveStatus::kOptimal ||
        (res.status == mcs::lp::SolveStatus::kNodeLimit &&
         std::isfinite(res.best_bound));
    if (res.status == mcs::lp::SolveStatus::kInfeasible) return 0.0;
    return bounded ? res.best_bound : -1.0;
  }

  void fixpoint(const std::string& label, const TaskSet& tasks, TaskIndex i,
                bool ignore_ls, const AnalysisOptions& options,
                Slot* slots) {
    const mcs::rt::Task& task = tasks[i];
    const bool ls = task.latency_sensitive && !ignore_ls;
    Time response = task.total_demand();
    if (response > task.deadline) return;
    double case_b = 0.0;
    if (ls) {
      case_b = solve(label, tasks, i, 0, FormulationCase::kLsCaseB,
                     ignore_ls, options, slots[2]);
      if (case_b < 0.0) return;
    }
    const FormulationCase fcase =
        ls ? FormulationCase::kLsCaseA : FormulationCase::kNls;
    std::vector<std::uint64_t> prev_budgets;
    double prev_ls = -1.0;
    for (int iter = 0; iter < 64; ++iter) {
      const Time t = response - task.exec - task.copy_out;
      std::vector<std::uint64_t> budgets =
          mcs::analysis::interference_budgets(tasks, i, t);
      const double ls_releases =
          mcs::analysis::ls_release_budget(tasks, t, ignore_ls);
      if (iter > 0 && budgets == prev_budgets && ls_releases == prev_ls) {
        return;
      }
      prev_budgets = std::move(budgets);
      prev_ls = ls_releases;
      const double delay = solve(label, tasks, i, t, fcase, ignore_ls,
                                 options, slots[ls ? 1 : 0]);
      if (delay < 0.0 || !(delay < 4e18)) return;
      const Time next =
          mcs::analysis::delay_to_ticks(std::max(delay, case_b)) +
          task.copy_out;
      if (next > task.deadline || next <= response) return;
      response = next;
    }
  }

  std::ostringstream* out_;
  std::vector<std::array<Slot, 3>> wp_;
  std::vector<std::array<Slot, 3>> ls_;
};

TaskSet all_latency_sensitive(TaskSet tasks) {
  for (TaskIndex i = 0; i < tasks.size(); ++i) {
    tasks[i].latency_sensitive = true;
  }
  return tasks;
}

void record_task_set(DigestRecorder& rec, const std::string& label,
                     const TaskSet& tasks) {
  rec.reset();
  rec.pass(label + " wp", tasks, /*ignore_ls=*/true);
  rec.pass(label + " marked", tasks, /*ignore_ls=*/false);
  rec.pass(label + " all_ls", all_latency_sensitive(tasks),
           /*ignore_ls=*/false);
  rec.pass(label + " remarked", tasks, /*ignore_ls=*/false);
}

TEST(PresolveDigest, ReducedModelsMatchGolden) {
  std::ostringstream actual;
  DigestRecorder rec(&actual);

  const char* workloads[] = {
      "workloads/quickstart.wl",        "workloads/sensor_chain.wl",
      "workloads/ecu.wl",               "workloads/verify/copy_free.wl",
      "workloads/verify/harmonic_ls.wl", "workloads/verify/pair_ls.wl",
      "workloads/verify/pair_nls.wl",   "workloads/verify/quartet.wl",
      "workloads/verify/trio_mixed.wl"};
  for (const char* file : workloads) {
    const mcs::rt::Workload w = mcs::rt::load_workload_file(
        std::string(MCS_SOURCE_DIR) + "/" + file);
    record_task_set(rec, file, w.tasks);
  }

  // Three sweep points (low end, middle, high end) per Figure-2 inset,
  // task-set slot 0 of each, seeded as the sweep seeds its units.
  for (const char inset : std::string("abcdef")) {
    const mcs::exp::ExperimentConfig cfg = mcs::exp::figure2_config(inset);
    const std::size_t points[] = {1, cfg.values.size() / 2,
                                  cfg.values.size() - 2};
    for (const std::size_t p : points) {
      mcs::gen::GeneratorConfig g = cfg.base;
      const double x = cfg.values[p];
      switch (cfg.sweep) {
        case mcs::exp::SweepParam::kUtilization:
          g.utilization = x;
          break;
        case mcs::exp::SweepParam::kGamma:
          g.gamma = x;
          break;
        case mcs::exp::SweepParam::kBeta:
          g.beta = x;
          break;
        case mcs::exp::SweepParam::kNumTasks:
          g.num_tasks = static_cast<std::size_t>(x);
          break;
      }
      mcs::support::Rng rng(mcs::support::derive_seed(cfg.seed, p, 0));
      const TaskSet tasks = mcs::gen::generate_task_set(g, rng);
      record_task_set(
          rec, std::string("fig2") + inset + " point=" + std::to_string(p),
          tasks);
    }
  }

  const std::string golden_path =
      std::string(MCS_SOURCE_DIR) + "/tests/golden/presolve_digests.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual.str()) return;

  std::ofstream("presolve_digests.actual.txt") << actual.str();
  std::istringstream want(golden.str());
  std::istringstream got(actual.str());
  std::string want_line;
  std::string got_line;
  std::size_t line = 0;
  std::size_t shown = 0;
  while (shown < 10) {
    const bool w = static_cast<bool>(std::getline(want, want_line));
    const bool g = static_cast<bool>(std::getline(got, got_line));
    if (!w && !g) break;
    ++line;
    if (w && g && want_line == got_line) continue;
    ADD_FAILURE() << "line " << line << ": golden '"
                  << (w ? want_line : "<none>") << "' vs computed '"
                  << (g ? got_line : "<none>") << "'";
    ++shown;
  }
  FAIL() << "presolved models differ from " << golden_path
         << "; computed digests written to presolve_digests.actual.txt";
}

}  // namespace
