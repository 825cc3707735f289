#include "analysis/milp_formulation.hpp"

#include <algorithm>
#include <string>

#include "analysis/window.hpp"
#include "support/contracts.hpp"

namespace mcs::analysis {

namespace {

using lp::LinExpr;
using lp::Model;
using lp::Relation;
using lp::Sense;
using lp::VarId;
using rt::TaskIndex;
using rt::Time;

constexpr VarId kNoVar{};

bool valid(VarId v) { return v.index != static_cast<std::size_t>(-1); }

double td(Time t) { return static_cast<double>(t); }

/// Expresses the task set's *current* LS marking in a patchable
/// formulation through column bounds: LE columns stay open only for tasks
/// that are latency-sensitive right now, CL columns only for tasks some
/// currently-LS higher-priority task could cancel (rule R3).  Everything
/// else is fixed to zero — structurally present for a future marking,
/// inert under this one.
void apply_ls_marking(DelayMilp& milp, const rt::TaskSet& tasks) {
  const std::size_t n = tasks.size();
  const auto cancelable_now = [&](TaskIndex j) {
    for (TaskIndex s = 0; s < n; ++s) {
      if (s != j && tasks[s].latency_sensitive &&
          tasks[s].priority < tasks[j].priority) {
        return true;
      }
    }
    return false;
  };
  for (TaskIndex j = 0; j < n; ++j) {
    const double le_ub = tasks[j].latency_sensitive ? 1.0 : 0.0;
    const double cl_ub = cancelable_now(j) ? 1.0 : 0.0;
    for (std::size_t k = 0; k < milp.num_intervals; ++k) {
      if (valid(milp.urgent_vars[j][k])) {
        milp.model.set_bounds(milp.urgent_vars[j][k], 0.0, le_ub);
      }
      if (valid(milp.cancel_vars[j][k])) {
        milp.model.set_bounds(milp.cancel_vars[j][k], 0.0, cl_ub);
      }
    }
  }
}

}  // namespace

const char* to_string(FormulationCase c) noexcept {
  switch (c) {
    case FormulationCase::kNls:
      return "nls";
    case FormulationCase::kLsCaseA:
      return "ls-case-a";
    case FormulationCase::kLsCaseB:
      return "ls-case-b";
  }
  return "unknown";
}

DelayMilp build_delay_milp(const rt::TaskSet& tasks, TaskIndex i, Time t,
                           FormulationCase fcase, bool ignore_ls,
                           bool patchable_ls) {
  MCS_REQUIRE(i < tasks.size(), "build_delay_milp: bad task index");
  MCS_REQUIRE(t >= 0, "build_delay_milp: negative window");
  const bool analyzed_ls = fcase != FormulationCase::kNls;
  MCS_REQUIRE(!ignore_ls || !analyzed_ls,
              "LS cases are meaningless when LS semantics are disabled");
  if (analyzed_ls) {
    MCS_REQUIRE(tasks[i].latency_sensitive,
                "LS formulation for a non-LS task");
  }
  // With LS semantics disabled there is nothing marking-dependent to
  // patch, so a "patchable" build degenerates to the exact formulation.
  const bool patch = patchable_ls && !ignore_ls;

  const std::size_t n = tasks.size();
  const auto is_ls = [&](TaskIndex j) {
    return !ignore_ls && tasks[j].latency_sensitive;
  };
  // Structural admission marking: under a patchable build every task may
  // become latency-sensitive over a greedy marking run, so LE/CL columns
  // (and the big-Ms below) cover that superset; the current marking is
  // then expressed through column bounds only (apply_ls_marking).
  const auto may_be_ls = [&](TaskIndex j) { return patch || is_ls(j); };
  const auto my_prio = tasks[i].priority;
  const auto is_lp = [&](TaskIndex j) { return tasks[j].priority > my_prio; };

  // A task's copy-in can be cancelled iff some higher-priority LS task
  // exists (rule R3).
  const auto cancelable = [&](TaskIndex j) {
    for (TaskIndex s = 0; s < n; ++s) {
      if (s != j && may_be_ls(s) && tasks[s].priority < tasks[j].priority) {
        return true;
      }
    }
    return false;
  };

  // --- Window size ----------------------------------------------------------
  std::size_t N = 0;
  switch (fcase) {
    case FormulationCase::kNls:
      N = window_intervals_nls(tasks, i, t);
      break;
    case FormulationCase::kLsCaseA:
      N = window_intervals_ls(tasks, i, t);
      break;
    case FormulationCase::kLsCaseB:
      N = 2;
      break;
  }
  MCS_ASSERT(N >= 2, "window must have at least two intervals");
  const auto budgets = interference_budgets(tasks, i, t);

  // --- Structural admission of phases per interval ---------------------------
  // exec_allowed(j, k): may E_j^k be one?  k ranges over [0, N-2]; tau_i's
  // own execution is fixed in I_{N-1} and never a variable.
  const auto exec_allowed = [&](TaskIndex j, std::size_t k) {
    if (j == i) return false;
    if (fcase == FormulationCase::kLsCaseB) return k == 0;
    if (is_lp(j)) {
      // NLS: blocking only in I_0 / I_1 (Constraint 3).  LS case (a):
      // blocking only in I_0 (Constraint 14).
      return fcase == FormulationCase::kNls ? k <= 1 : k == 0;
    }
    return k <= N - 2;
  };
  // urgent_allowed(j, k): may LE_j^k be one?  Only LS tasks (Constraint 4).
  const auto urgent_allowed = [&](TaskIndex j, std::size_t k) {
    if (j == i || !may_be_ls(j)) return false;
    if (fcase == FormulationCase::kLsCaseB) return k == 0;
    if (is_lp(j)) {
      return fcase == FormulationCase::kNls ? k <= 1 : k == 0;
    }
    return k <= N - 2;
  };
  // cancel_allowed(j, k): may CL_j^k be one?  k ranges over [0, N-3] for
  // the long cases and {0} for case (b); lower-priority tasks only in I_0
  // (Constraint 3).
  const auto cancel_allowed = [&](TaskIndex j, std::size_t k) {
    if (!cancelable(j)) return false;
    if (fcase == FormulationCase::kLsCaseB) return k == 0;
    if (N < 3 || k > N - 3) return false;
    if (is_lp(j)) return k == 0;
    return true;
  };

  // --- Per-interval bounds on CPU and DMA work -------------------------------
  // cpu_ub[k]: largest CPU occupancy any single execution can cause in I_k.
  // dma_ub[k]: largest possible copy-out + copy-in time in I_k given which
  // phases are structurally admitted there.  Both feed tight per-interval
  // big-Ms, Delta upper bounds, and the one-executor cut below.
  std::vector<double> cpu_ub(N, 0.0);
  std::vector<double> dma_ub(N, 0.0);
  for (std::size_t k = 0; k < N; ++k) {
    if (k == N - 1) {
      cpu_ub[k] = td(fcase == FormulationCase::kLsCaseB
                         ? tasks[i].copy_in + tasks[i].exec
                         : tasks[i].exec);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (exec_allowed(j, k)) {
          cpu_ub[k] = std::max(cpu_ub[k], td(tasks[j].exec));
        }
        if (urgent_allowed(j, k)) {
          cpu_ub[k] =
              std::max(cpu_ub[k], td(tasks[j].copy_in + tasks[j].exec));
        }
      }
    }
    // Copy-out side: whatever may execute in I_{k-1} (unknown pre-window
    // task for I_0).
    double cou = 0.0;
    if (k == 0) {
      cou = td(tasks.max_copy_out());
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (exec_allowed(j, k - 1) || urgent_allowed(j, k - 1)) {
          cou = std::max(cou, td(tasks[j].copy_out));
        }
      }
    }
    // Copy-in side: loads for I_{k+1} plus possible cancellations, with the
    // fixed boundary terms of Constraint 12.
    double cin = 0.0;
    if (k == N - 1) {
      cin = td(tasks.max_copy_in());
    } else if (k == N - 2 && fcase != FormulationCase::kLsCaseB) {
      cin = td(tasks[i].copy_in);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (k + 1 < N && exec_allowed(j, k + 1)) {
          cin = std::max(cin, td(tasks[j].copy_in));
        }
        if (cancel_allowed(j, k)) {
          cin = std::max(cin, td(tasks[j].copy_in));
        }
      }
    }
    dma_ub[k] = cou + cin;
  }

  // --- Variables --------------------------------------------------------------
  DelayMilp out;
  Model& m = out.model;
  out.num_intervals = N;
  out.budget_constraints.assign(n, DelayMilp::kNoConstraint);
  out.delta_vars.resize(N);
  out.exec_vars.assign(n, std::vector<VarId>(N, kNoVar));
  out.urgent_vars.assign(n, std::vector<VarId>(N, kNoVar));
  out.cancel_vars.assign(n, std::vector<VarId>(N, kNoVar));

  // Exact capacity hints: the admission predicates fully determine how many
  // variables and constraints the loops below create, so derive the counts
  // up front and reserve once instead of reallocating along the way.
  std::size_t reserved_vars = 2 * N + 2;  // Delta_k, alpha_k, copy boundaries
  std::size_t reserved_rows = 3 * N + (N - 1);  // delta_{cpu,dma,sum,1exec}
  {
    bool any_cl = false;
    for (TaskIndex j = 0; j < n; ++j) {
      for (std::size_t k = 0; k + 1 < N; ++k) {
        if (exec_allowed(j, k)) ++reserved_vars;
        if (urgent_allowed(j, k)) ++reserved_vars;
        if (cancel_allowed(j, k)) ++reserved_vars;
        any_cl = any_cl || cancel_allowed(j, k);
      }
    }
    for (std::size_t k = 0; k + 1 < N; ++k) {
      bool any = false;
      for (TaskIndex j = 0; j < n && !any; ++j) {
        any = exec_allowed(j, k) || urgent_allowed(j, k);
      }
      if (any) ++reserved_rows;  // one_exec_k
    }
    for (std::size_t k = 0; k + 2 < N; ++k) {
      bool copyin = false;
      bool urgent = false;
      for (TaskIndex j = 0; j < n && !(copyin && urgent); ++j) {
        copyin = copyin || exec_allowed(j, k + 1) || cancel_allowed(j, k);
        urgent = urgent || urgent_allowed(j, k + 1);
      }
      if (copyin) ++reserved_rows;
      if (urgent) ++reserved_rows;
    }
    for (TaskIndex j = 0; j < n; ++j) {
      if (j == i) continue;
      bool any = false;
      for (std::size_t k = 0; k + 1 < N && !any; ++k) {
        any = exec_allowed(j, k) || urgent_allowed(j, k);
      }
      if (any) ++reserved_rows;  // budget_j
    }
    if (any_cl) ++reserved_rows;  // cancellation_budget
  }
  m.reserve_variables(reserved_vars);
  // No column enters more than 10 rows (an E column: its cardinality,
  // copy-in, budget, CPU and one-executor rows, and the DMA and sum rows of
  // its own and both neighbouring intervals).
  m.reserve_constraints(reserved_rows, 10 * reserved_vars);

  for (std::size_t k = 0; k < N; ++k) {
    out.delta_vars[k] = m.add_continuous(
        0.0, std::max(cpu_ub[k], dma_ub[k]), "Delta_" + std::to_string(k));
  }
  std::vector<VarId> alpha(N);
  for (std::size_t k = 0; k < N; ++k) {
    alpha[k] = m.add_binary("alpha_" + std::to_string(k));
  }
  out.alpha_vars = alpha;
  for (TaskIndex j = 0; j < n; ++j) {
    for (std::size_t k = 0; k + 1 < N; ++k) {
      if (exec_allowed(j, k)) {
        out.exec_vars[j][k] = m.add_binary(
            "E_" + std::to_string(j) + "_" + std::to_string(k));
      }
      if (urgent_allowed(j, k)) {
        out.urgent_vars[j][k] = m.add_binary(
            "LE_" + std::to_string(j) + "_" + std::to_string(k));
      }
      if (cancel_allowed(j, k)) {
        out.cancel_vars[j][k] = m.add_binary(
            "CL_" + std::to_string(j) + "_" + std::to_string(k));
      }
    }
  }
  // Copy-out of the unknown pre-window task in I_0 (Constraint 12) and
  // copy-in for an unknown post-window task in I_{N-1}.
  const VarId copyout0 =
      m.add_continuous(0.0, td(tasks.max_copy_out()), "copyout0");
  const VarId copyin_last =
      m.add_continuous(0.0, td(tasks.max_copy_in()), "copyin_last");

  // --- Row assembly ------------------------------------------------------------
  // Each row is gathered in one reused scratch as the terms of `lhs - rhs`
  // (right-hand terms negated) plus the right-hand constant, and installed
  // with one add_constraint call.  The stored row is the one the LinExpr
  // form `add_constraint(lhs, rel, rhs)` stores for the same sides.
  std::vector<lp::Term> row;
  std::string name;
  const auto put = [&](VarId v, double coef) {
    row.emplace_back(v.index, coef);
  };
  const auto install = [&](Relation rel, double rhs) {
    m.add_constraint(row, rel, rhs, name);
    row.clear();
  };
  const auto label = [&](const char* prefix, std::size_t k) {
    name.assign(prefix);
    name += std::to_string(k);
  };

  // CPU work in I_k: appends its terms times `sign`, returns its constant.
  const auto cpu_work = [&](std::size_t k, double sign) {
    if (k == N - 1) {
      // tau_i executes in the last interval; in case (b) the CPU also
      // performs its copy-in sequentially (Constraint 15).
      return td(fcase == FormulationCase::kLsCaseB
                    ? tasks[i].copy_in + tasks[i].exec
                    : tasks[i].exec);
    }
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.exec_vars[j][k])) {
        put(out.exec_vars[j][k], sign * td(tasks[j].exec));
      }
      if (valid(out.urgent_vars[j][k])) {
        put(out.urgent_vars[j][k],
            sign * td(tasks[j].copy_in + tasks[j].exec));
      }
    }
    return 0.0;
  };

  // DMA work in I_k, likewise.
  const auto dma_work = [&](std::size_t k, double sign) {
    double constant = 0.0;
    // Copy-out of whatever executed in I_{k-1} (Constraint 2 substituted).
    if (k == 0) {
      put(copyout0, sign);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (valid(out.exec_vars[j][k - 1])) {
          put(out.exec_vars[j][k - 1], sign * td(tasks[j].copy_out));
        }
        if (valid(out.urgent_vars[j][k - 1])) {
          put(out.urgent_vars[j][k - 1], sign * td(tasks[j].copy_out));
        }
      }
    }
    // Copy-in for whatever executes in I_{k+1} (Constraint 1 substituted),
    // plus cancelled copy-ins (Constraint 10's CL term).
    if (k == N - 1) {
      put(copyin_last, sign);
    } else if (k == N - 2 && fcase != FormulationCase::kLsCaseB) {
      constant = td(tasks[i].copy_in);  // tau_i's own copy-in (Constraint 12)
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (k + 1 < N && valid(out.exec_vars[j][k + 1])) {
          put(out.exec_vars[j][k + 1], sign * td(tasks[j].copy_in));
        }
      }
    }
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.cancel_vars[j][k])) {
        put(out.cancel_vars[j][k], sign * td(tasks[j].copy_in));
      }
    }
    return constant;
  };

  // --- Constraints ----------------------------------------------------------
  // Constraint 5: exactly one execution per interval I_1 .. I_{N-2}.  While
  // tau_i is pending the ready queue is non-empty, so R2 schedules a
  // copy-in (or a cancellation happens, which promotes an urgent task) in
  // every interval and R5 executes the result in the next one — the CPU is
  // never idle after I_0.  I_0 itself (the release interval) may or may not
  // contain an execution (<= 1).  The window_intervals_* clamp guarantees
  // the equality system is structurally feasible (DESIGN.md §5.5).
  for (std::size_t k = 0; k + 1 < N; ++k) {
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.exec_vars[j][k])) put(out.exec_vars[j][k], 1.0);
      if (valid(out.urgent_vars[j][k])) put(out.urgent_vars[j][k], 1.0);
    }
    const bool any = !row.empty();
    const Relation rel =
        (k == 0 || fcase == FormulationCase::kLsCaseB) ? Relation::kLe
                                                       : Relation::kEq;
    MCS_ASSERT(any || rel == Relation::kLe,
               "equality interval without admissible executions");
    if (any) {
      label("one_exec_", k);
      install(rel, 1.0);
    }
  }

  // Constraint 6: exactly one copy-in operation (completed or cancelled)
  // per interval I_0 .. I_{N-3} — R2 always starts one while tau_i waits.
  for (std::size_t k = 0; k + 2 < N; ++k) {
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.exec_vars[j][k + 1])) put(out.exec_vars[j][k + 1], 1.0);
      if (valid(out.cancel_vars[j][k])) put(out.cancel_vars[j][k], 1.0);
    }
    if (!row.empty()) {
      label("one_copyin_", k);
      install(fcase == FormulationCase::kLsCaseB ? Relation::kLe
                                                 : Relation::kEq,
              1.0);
    }
  }

  // Constraint 7: interference budgets for hp tasks, single execution for
  // lp tasks.
  for (TaskIndex j = 0; j < n; ++j) {
    if (j == i) continue;
    for (std::size_t k = 0; k + 1 < N; ++k) {
      if (valid(out.exec_vars[j][k])) put(out.exec_vars[j][k], 1.0);
      if (valid(out.urgent_vars[j][k])) put(out.urgent_vars[j][k], 1.0);
    }
    if (row.empty()) continue;
    const double budget =
        is_lp(j) ? 1.0 : static_cast<double>(budgets[j]);
    name.assign("budget_");
    name += tasks[j].name;
    install(Relation::kLe, budget);
    out.budget_constraints[j] = m.num_constraints() - 1;
  }

  // Constraint 8: an urgent execution in I_{k+1} requires a cancelled
  // copy-in in I_k (tau_i is pending, so "no copy-in" cannot explain it).
  for (std::size_t k = 0; k + 2 < N; ++k) {
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.cancel_vars[j][k])) put(out.cancel_vars[j][k], 1.0);
    }
    const std::size_t cancels = row.size();
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(out.urgent_vars[j][k + 1])) {
        put(out.urgent_vars[j][k + 1], -1.0);
      }
    }
    if (row.size() > cancels) {
      label("cancel_before_urgent_", k);
      install(Relation::kGe, 0.0);
    } else {
      row.clear();
    }
  }

  // Cancellation budget (protocol property, tightening): every cancellation
  // is triggered by the release of one latency-sensitive job (R3), so the
  // total number of CL events in the window cannot exceed the number of LS
  // job releases, bounded by sum over LS tasks of (eta_s(t) + 1).
  for (TaskIndex j = 0; j < n; ++j) {
    for (std::size_t k = 0; k + 1 < N; ++k) {
      if (valid(out.cancel_vars[j][k])) put(out.cancel_vars[j][k], 1.0);
    }
  }
  if (!row.empty()) {
    name.assign("cancellation_budget");
    install(Relation::kLe, ls_release_budget(tasks, t, ignore_ls));
    out.cancellation_budget_constraint = m.num_constraints() - 1;
  }

  // Constraints 9-13 (substituted): interval length = max(CPU, DMA) via the
  // alpha big-M pair, plus the valid cut Delta <= CPU + DMA (max of two
  // non-negative quantities never exceeds their sum).  The cut does not
  // change the integer optimum but tightens the LP relaxation enormously —
  // without it a fractional alpha buys up to big_m/2 of free slack per
  // interval, which is what used to exhaust the branch & bound budget.
  for (std::size_t k = 0; k < N; ++k) {
    const double m_k = std::max(cpu_ub[k], dma_ub[k]);
    // Delta_k <= cpu + m_k * alpha_k
    put(out.delta_vars[k], 1.0);
    const double cpu = cpu_work(k, -1.0);
    put(alpha[k], -m_k);
    label("delta_cpu_", k);
    install(Relation::kLe, cpu);
    // Delta_k <= dma + m_k * (1 - alpha_k)
    put(out.delta_vars[k], 1.0);
    const double dma = dma_work(k, -1.0);
    put(alpha[k], m_k);
    label("delta_dma_", k);
    install(Relation::kLe, dma + m_k);
    // Delta_k <= cpu + dma
    put(out.delta_vars[k], 1.0);
    cpu_work(k, -1.0);
    dma_work(k, -1.0);
    label("delta_sum_", k);
    install(Relation::kLe, cpu + dma);
    // One-executor cut: with at most one execution per interval,
    //   Delta_k <= dma_ub[k] + sum_j (E/LE)_j^k * max(0, work_j - dma_ub[k])
    // is valid (executing j gives max(work_j, dma_k) <= max(work_j,
    // dma_ub); an idle CPU gives dma_k <= dma_ub).  This caps the LP trick
    // of claiming cpu + dma per interval and is the single most effective
    // relaxation tightener for these instances.
    if (k + 1 < N) {
      put(out.delta_vars[k], 1.0);
      for (TaskIndex j = 0; j < n; ++j) {
        if (valid(out.exec_vars[j][k])) {
          const double extra =
              std::max(0.0, td(tasks[j].exec) - dma_ub[k]);
          if (extra > 0.0) put(out.exec_vars[j][k], -extra);
        }
        if (valid(out.urgent_vars[j][k])) {
          const double extra = std::max(
              0.0, td(tasks[j].copy_in + tasks[j].exec) - dma_ub[k]);
          if (extra > 0.0) put(out.urgent_vars[j][k], -extra);
        }
      }
      label("delta_one_exec_", k);
      install(Relation::kLe, dma_ub[k]);
    }
  }

  // Objective (Eq. 1 without the constant u_i, which the caller adds).
  LinExpr objective;
  for (std::size_t k = 0; k < N; ++k) {
    objective.add_term(out.delta_vars[k], 1.0);
  }
  m.set_objective(Sense::kMaximize, objective);

  MCS_ASSERT(m.num_variables() == reserved_vars &&
                 m.num_constraints() == reserved_rows,
             "build_delay_milp: capacity hints diverged from construction");

  if (patch) {
    out.patchable_ls = true;
    apply_ls_marking(out, tasks);
  }
  return out;
}

void update_delay_milp(DelayMilp& milp, const rt::TaskSet& tasks,
                       TaskIndex i, Time t, bool ignore_ls) {
  MCS_REQUIRE(i < tasks.size(), "update_delay_milp: bad task index");
  MCS_REQUIRE(t >= 0, "update_delay_milp: negative window");
  MCS_REQUIRE(milp.budget_constraints.size() == tasks.size(),
              "update_delay_milp: formulation built for a different set");
  const auto budgets = interference_budgets(tasks, i, t);
  const auto my_prio = tasks[i].priority;
  for (TaskIndex j = 0; j < tasks.size(); ++j) {
    const std::size_t row = milp.budget_constraints[j];
    if (row == DelayMilp::kNoConstraint) continue;
    const bool lp_task = tasks[j].priority > my_prio;
    milp.model.set_rhs(row,
                       lp_task ? 1.0 : static_cast<double>(budgets[j]));
  }
  if (milp.cancellation_budget_constraint != DelayMilp::kNoConstraint) {
    milp.model.set_rhs(milp.cancellation_budget_constraint,
                       ls_release_budget(tasks, t, ignore_ls));
  }
  if (milp.patchable_ls) {
    apply_ls_marking(milp, tasks);
  }
}

}  // namespace mcs::analysis
