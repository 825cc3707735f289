#include "check/formulation_lint.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/model_lint.hpp"

namespace mcs::check {

namespace {

using lp::Model;
using lp::Relation;
using lp::VarId;
using lp::Variable;
using lp::VarType;
using rt::TaskIndex;
using rt::Time;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool valid(VarId v) { return v.index != npos; }

double td(Time t) { return static_cast<double>(t); }

std::string col(const Model& m, VarId v) {
  const std::string& name = m.variables()[v.index].name;
  return name.empty() ? "column " + std::to_string(v.index) : name;
}

/// Everything the audit re-derives from first principles (paper §V): the
/// structural admission of placement variables per interval, the window
/// interval count, and the per-interval CPU/DMA upper bounds feeding the
/// big-Ms.  Intentionally a from-scratch re-derivation, not a call into
/// analysis/window or the builder.
struct Rederivation {
  std::size_t num_intervals = 0;
  std::vector<std::uint64_t> budgets;          ///< eta_j(t) + 1 for hp tasks
  double ls_release_budget = 0.0;
  std::vector<std::vector<bool>> exec_ok;      ///< [task][interval]
  std::vector<std::vector<bool>> urgent_ok;
  std::vector<std::vector<bool>> cancel_ok;
  std::vector<double> cpu_ub;                  ///< per-interval CPU big-M side
  std::vector<double> dma_ub;                  ///< per-interval DMA big-M side
};

Rederivation rederive(const rt::TaskSet& tasks, TaskIndex i, Time t,
                      FormulationCase fcase, bool ignore_ls,
                      bool patchable_ls) {
  const std::size_t n = tasks.size();
  Rederivation out;

  const auto my_prio = tasks[i].priority;
  const auto is_ls = [&](TaskIndex j) {
    return !ignore_ls && tasks[j].latency_sensitive;
  };
  const bool patch = patchable_ls && !ignore_ls;
  const auto may_be_ls = [&](TaskIndex j) { return patch || is_ls(j); };
  const auto is_lp = [&](TaskIndex j) { return tasks[j].priority > my_prio; };
  const auto cancelable = [&](TaskIndex j) {
    for (TaskIndex s = 0; s < n; ++s) {
      if (s != j && may_be_ls(s) && tasks[s].priority < tasks[j].priority) {
        return true;
      }
    }
    return false;
  };

  // Interference budgets eta_j(t) + 1 straight from the arrival curves
  // (Theorem 1), and the cancellation budget from the LS releases (R3).
  out.budgets.assign(n, 0);
  std::size_t interference = 0;
  std::size_t lower = 0;
  for (TaskIndex j = 0; j < n; ++j) {
    if (j == i) continue;
    if (tasks[j].priority < my_prio) {
      out.budgets[j] = tasks[j].arrival->releases_in(t) + 1;
      interference += static_cast<std::size_t>(out.budgets[j]);
    } else {
      ++lower;
    }
  }
  if (!ignore_ls) {
    for (TaskIndex s = 0; s < n; ++s) {
      if (tasks[s].latency_sensitive) {
        out.ls_release_budget +=
            static_cast<double>(tasks[s].arrival->releases_in(t) + 1);
      }
    }
  }

  // Window interval count: Theorem 1 (NLS, <= 2 blocking intervals) /
  // Corollary 1 (LS, <= 1) with the blocking count clamped to the number
  // of lower-priority tasks; case (b) is a fixed two-interval window.
  switch (fcase) {
    case FormulationCase::kNls:
      out.num_intervals = std::max<std::size_t>(
          interference + std::min<std::size_t>(2, lower) + 1, 2);
      break;
    case FormulationCase::kLsCaseA:
      out.num_intervals = std::max<std::size_t>(
          interference + std::min<std::size_t>(1, lower) + 1, 2);
      break;
    case FormulationCase::kLsCaseB:
      out.num_intervals = 2;
      break;
  }
  const std::size_t N = out.num_intervals;

  // Structural admission per (task, interval) — paper Constraints 3 and 4:
  // lower-priority tasks block only at the window start, urgent columns
  // only for (possibly) latency-sensitive tasks, cancellations only for
  // tasks a higher-priority LS task could cancel.
  out.exec_ok.assign(n, std::vector<bool>(N, false));
  out.urgent_ok.assign(n, std::vector<bool>(N, false));
  out.cancel_ok.assign(n, std::vector<bool>(N, false));
  for (TaskIndex j = 0; j < n; ++j) {
    for (std::size_t k = 0; k + 1 < N; ++k) {
      bool e = false;
      bool le = false;
      if (j != i) {
        if (fcase == FormulationCase::kLsCaseB) {
          e = k == 0;
        } else if (is_lp(j)) {
          e = fcase == FormulationCase::kNls ? k <= 1 : k == 0;
        } else {
          e = true;  // k <= N - 2 by loop bound
        }
        le = e && may_be_ls(j);
      }
      out.exec_ok[j][k] = e;
      out.urgent_ok[j][k] = le;

      bool cl = cancelable(j);
      if (cl) {
        if (fcase == FormulationCase::kLsCaseB) {
          cl = k == 0;
        } else if (N < 3 || k > N - 3) {
          cl = false;
        } else if (is_lp(j)) {
          cl = k == 0;
        }
      }
      out.cancel_ok[j][k] = cl;
    }
  }

  // Per-interval CPU / DMA upper bounds (the tight big-Ms of
  // Constraint 13).  These depend only on the admission structure and the
  // task parameters, never on the window length, so they are identical
  // for a fresh build and any later patch of the same formulation.
  out.cpu_ub.assign(N, 0.0);
  out.dma_ub.assign(N, 0.0);
  for (std::size_t k = 0; k < N; ++k) {
    if (k == N - 1) {
      out.cpu_ub[k] = td(fcase == FormulationCase::kLsCaseB
                             ? tasks[i].copy_in + tasks[i].exec
                             : tasks[i].exec);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (out.exec_ok[j][k]) {
          out.cpu_ub[k] = std::max(out.cpu_ub[k], td(tasks[j].exec));
        }
        if (out.urgent_ok[j][k]) {
          out.cpu_ub[k] = std::max(out.cpu_ub[k],
                                   td(tasks[j].copy_in + tasks[j].exec));
        }
      }
    }
    double cou = 0.0;
    if (k == 0) {
      cou = td(tasks.max_copy_out());
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (out.exec_ok[j][k - 1] || out.urgent_ok[j][k - 1]) {
          cou = std::max(cou, td(tasks[j].copy_out));
        }
      }
    }
    double cin = 0.0;
    if (k == N - 1) {
      cin = td(tasks.max_copy_in());
    } else if (k == N - 2 && fcase != FormulationCase::kLsCaseB) {
      cin = td(tasks[i].copy_in);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (k + 1 < N && out.exec_ok[j][k + 1]) {
          cin = std::max(cin, td(tasks[j].copy_in));
        }
        if (out.cancel_ok[j][k]) {
          cin = std::max(cin, td(tasks[j].copy_in));
        }
      }
    }
    out.dma_ub[k] = cou + cin;
  }
  return out;
}

/// Canonical (index, coefficient) list of an expected row for comparison.
using Terms = std::vector<std::pair<std::size_t, double>>;

Terms sorted_terms(Terms terms) {
  std::sort(terms.begin(), terms.end());
  return terms;
}

/// Compares normalized `actual` terms with the re-derived `expected` ones.
bool terms_equal(std::span<const lp::Term> actual, const Terms& expected,
                 std::string* detail) {
  const Terms got(actual.begin(), actual.end());
  const Terms want = sorted_terms(expected);
  if (got != want) {
    *detail = "coefficients differ from the re-derived row (" +
              std::to_string(got.size()) + " vs " +
              std::to_string(want.size()) + " terms)";
    // Pin the first differing term for actionable output.
    for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
      if (got[k] != want[k]) {
        *detail = "term on column " + std::to_string(got[k].first) + " is " +
                  std::to_string(got[k].second) + ", re-derivation expects " +
                  std::to_string(want[k].second) + " on column " +
                  std::to_string(want[k].first);
        break;
      }
    }
    return false;
  }
  return true;
}

bool integral(double v) { return std::isfinite(v) && std::nearbyint(v) == v; }

}  // namespace

CheckReport lint_formulation(const FormulationView& view,
                             const rt::TaskSet& tasks, TaskIndex i,
                             Time t, FormulationCase fcase, bool ignore_ls) {
  CheckReport report;
  if (view.model == nullptr) {
    report.add("MCS-F110", Severity::kError, "formulation", "no model");
    return report;
  }
  const Model& m = *view.model;
  const std::size_t n = tasks.size();
  const std::size_t N = view.num_intervals;

  report.merge(lint_model(m));

  // --- Handle shape ---------------------------------------------------------
  if (i >= n || N < 2 || view.delta_vars.size() != N ||
      view.alpha_vars.size() != N || view.exec_vars.size() != n ||
      view.urgent_vars.size() != n || view.cancel_vars.size() != n ||
      view.budget_constraints.size() != n) {
    report.add("MCS-F110", Severity::kError, "formulation",
               "handle bookkeeping does not match the task set / window");
    return report;  // nothing below can be interpreted safely
  }
  const auto in_range = [&](VarId v) { return v.index < m.num_variables(); };
  for (std::size_t k = 0; k < N; ++k) {
    if (!in_range(view.delta_vars[k]) || !in_range(view.alpha_vars[k])) {
      report.add("MCS-F110", Severity::kError,
                 "interval " + std::to_string(k),
                 "Delta/alpha handle out of range");
      return report;
    }
  }
  for (TaskIndex j = 0; j < n; ++j) {
    if (view.exec_vars[j].size() != N || view.urgent_vars[j].size() != N ||
        view.cancel_vars[j].size() != N) {
      report.add("MCS-F110", Severity::kError, "task " + tasks[j].name,
                 "placement handle rows not sized to the window");
      return report;
    }
    for (std::size_t k = 0; k < N; ++k) {
      for (const VarId v : {view.exec_vars[j][k], view.urgent_vars[j][k],
                            view.cancel_vars[j][k]}) {
        if (valid(v) && !in_range(v)) {
          report.add("MCS-F110", Severity::kError, "task " + tasks[j].name,
                     "placement handle out of range");
          return report;
        }
      }
    }
  }

  const Rederivation expect =
      rederive(tasks, i, t, fcase, ignore_ls, view.patchable_ls);
  if (expect.num_intervals != N) {
    report.add("MCS-F110", Severity::kError, "formulation",
               "window has " + std::to_string(N) + " intervals, N_i(t) "
               "re-derivation gives " +
                   std::to_string(expect.num_intervals));
    return report;
  }

  // --- Interval-length and selector columns ---------------------------------
  for (std::size_t k = 0; k < N; ++k) {
    const Variable& delta = m.variables()[view.delta_vars[k].index];
    const double ub = std::max(expect.cpu_ub[k], expect.dma_ub[k]);
    if (delta.type != VarType::kContinuous || delta.lower != 0.0 ||
        !std::isfinite(delta.upper) || delta.upper < 0.0) {
      report.add("MCS-F108", Severity::kError, col(m, view.delta_vars[k]),
                 "interval-length variable must be continuous with bounds "
                 "[0, finite]");
    } else if (delta.upper != ub) {
      report.add("MCS-F108", Severity::kError, col(m, view.delta_vars[k]),
                 "upper bound " + std::to_string(delta.upper) +
                     " differs from re-derived max(cpu, dma) bound " +
                     std::to_string(ub));
    }
    const Variable& alpha = m.variables()[view.alpha_vars[k].index];
    if (alpha.type != VarType::kBinary || alpha.lower != 0.0 ||
        alpha.upper != 1.0) {
      report.add("MCS-F110", Severity::kError, col(m, view.alpha_vars[k]),
                 "max-selector must be a free binary in [0, 1]");
    }
  }

  // --- Placement columns: admission, types, marking bounds ------------------
  const auto is_ls_now = [&](TaskIndex j) {
    return !ignore_ls && tasks[j].latency_sensitive;
  };
  const auto cancelable_now = [&](TaskIndex j) {
    for (TaskIndex s = 0; s < n; ++s) {
      if (s != j && is_ls_now(s) && tasks[s].priority < tasks[j].priority) {
        return true;
      }
    }
    return false;
  };
  for (TaskIndex j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < N; ++k) {
      const bool expect_e = k + 1 < N && expect.exec_ok[j][k];
      const bool expect_le = k + 1 < N && expect.urgent_ok[j][k];
      const bool expect_cl = k + 1 < N && expect.cancel_ok[j][k];
      const struct {
        const char* what;
        VarId var;
        bool expected;
        double want_ub;
        const char* bound_rule;
      } cols[] = {
          {"execution", view.exec_vars[j][k], expect_e, 1.0, "MCS-F110"},
          {"urgent", view.urgent_vars[j][k], expect_le,
           view.patchable_ls ? (is_ls_now(j) ? 1.0 : 0.0) : 1.0, "MCS-F107"},
          {"cancel", view.cancel_vars[j][k], expect_cl,
           view.patchable_ls ? (cancelable_now(j) ? 1.0 : 0.0) : 1.0,
           "MCS-F107"},
      };
      for (const auto& c : cols) {
        const std::string object = "task " + tasks[j].name + " interval " +
                                   std::to_string(k) + " " + c.what +
                                   " column";
        if (valid(c.var) != c.expected) {
          report.add("MCS-F110", Severity::kError, object,
                     c.expected ? "admissible per §V Constraints 3/4 but "
                                  "absent from the model"
                                : "present but not admissible per §V "
                                  "Constraints 3/4");
          continue;
        }
        if (!c.expected) continue;
        const Variable& v = m.variables()[c.var.index];
        if (v.type != VarType::kBinary) {
          report.add("MCS-F103", Severity::kError, object,
                     "placement variable is not binary");
        }
        if (v.lower != 0.0 || v.upper != c.want_ub) {
          report.add(c.bound_rule, Severity::kError, object,
                     "bounds [" + std::to_string(v.lower) + ", " +
                         std::to_string(v.upper) +
                         "] inconsistent with the current LS marking "
                         "(expected [0, " +
                         std::to_string(c.want_ub) + "])");
        }
      }
    }
  }

  // --- Binary confinement (MCS-F103) ----------------------------------------
  std::vector<bool> placement(m.num_variables(), false);
  for (std::size_t k = 0; k < N; ++k) {
    placement[view.alpha_vars[k].index] = true;
  }
  for (TaskIndex j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < N; ++k) {
      for (const VarId v : {view.exec_vars[j][k], view.urgent_vars[j][k],
                            view.cancel_vars[j][k]}) {
        if (valid(v)) placement[v.index] = true;
      }
    }
  }
  for (std::size_t c = 0; c < m.num_variables(); ++c) {
    if (m.variables()[c].type == VarType::kBinary && !placement[c]) {
      report.add("MCS-F103", Severity::kError, col(m, VarId{c}),
                 "binary column outside the alpha/E/LE/CL placement "
                 "families");
    }
  }

  // --- Objective (MCS-F109): maximize sum of interval lengths ---------------
  {
    Terms want;
    want.reserve(N);
    for (std::size_t k = 0; k < N; ++k) {
      want.emplace_back(view.delta_vars[k].index, 1.0);
    }
    std::string detail;
    if (m.objective_sense() != lp::Sense::kMaximize) {
      report.add("MCS-F109", Severity::kError, "objective",
                 "sense is not maximize");
    } else if (m.objective().normalized().constant() != 0.0) {
      report.add("MCS-F109", Severity::kError, "objective",
                 "unexpected constant term");
    } else if (!terms_equal(m.objective().normalized().terms(), want,
                            &detail)) {
      report.add("MCS-F109", Severity::kError, "objective", detail);
    }
  }

  // --- Named-row lookup ------------------------------------------------------
  std::unordered_map<std::string_view, std::size_t> rows;
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    const std::string_view name = m.row(r).name;
    if (!name.empty()) rows.emplace(name, r);
  }
  const auto named_row =
      [&](const std::string& name) -> std::optional<lp::RowView> {
    const auto it = rows.find(name);
    if (it == rows.end()) return std::nullopt;
    return m.row(it->second);
  };

  // --- Cardinality rows (Constraints 5 and 6) --------------------------------
  for (std::size_t k = 0; k + 1 < N; ++k) {
    Terms want;
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(view.exec_vars[j][k])) {
        want.emplace_back(view.exec_vars[j][k].index, 1.0);
      }
      if (valid(view.urgent_vars[j][k])) {
        want.emplace_back(view.urgent_vars[j][k].index, 1.0);
      }
    }
    const std::string name = "one_exec_" + std::to_string(k);
    const std::optional<lp::RowView> row = named_row(name);
    if (want.empty()) {
      if (row) {
        report.add("MCS-F101", Severity::kError, name,
                   "cardinality row without admissible placements");
      }
      continue;
    }
    if (!row) {
      report.add("MCS-F101", Severity::kError, name,
                 "placement-cardinality row missing");
      continue;
    }
    const Relation rel = (k == 0 || fcase == FormulationCase::kLsCaseB)
                             ? Relation::kLe
                             : Relation::kEq;
    std::string detail;
    if (row->relation != rel || row->rhs != 1.0) {
      report.add("MCS-F101", Severity::kError, name,
                 "must read `sum placements " +
                     std::string(rel == Relation::kLe ? "<=" : "=") +
                     " 1` for this interval");
    } else if (!terms_equal(row->terms, want, &detail)) {
      report.add("MCS-F101", Severity::kError, name, detail);
    }
  }
  for (std::size_t k = 0; k + 2 < N; ++k) {
    Terms want;
    for (TaskIndex j = 0; j < n; ++j) {
      if (valid(view.exec_vars[j][k + 1])) {
        want.emplace_back(view.exec_vars[j][k + 1].index, 1.0);
      }
      if (valid(view.cancel_vars[j][k])) {
        want.emplace_back(view.cancel_vars[j][k].index, 1.0);
      }
    }
    const std::string name = "one_copyin_" + std::to_string(k);
    const std::optional<lp::RowView> row = named_row(name);
    if (want.empty()) {
      if (row) {
        report.add("MCS-F102", Severity::kError, name,
                   "cardinality row without admissible copy-ins");
      }
      continue;
    }
    if (!row) {
      report.add("MCS-F102", Severity::kError, name,
                 "copy-in cardinality row missing");
      continue;
    }
    const Relation rel = fcase == FormulationCase::kLsCaseB ? Relation::kLe
                                                            : Relation::kEq;
    std::string detail;
    if (row->relation != rel || row->rhs != 1.0) {
      report.add("MCS-F102", Severity::kError, name,
                 "must read `sum copy-ins " +
                     std::string(rel == Relation::kLe ? "<=" : "=") +
                     " 1` for this interval");
    } else if (!terms_equal(row->terms, want, &detail)) {
      report.add("MCS-F102", Severity::kError, name, detail);
    }
  }

  // --- Interference budgets (Constraint 7, MCS-F104) -------------------------
  const auto my_prio = tasks[i].priority;
  for (TaskIndex j = 0; j < n; ++j) {
    Terms want;
    for (std::size_t k = 0; k + 1 < N; ++k) {
      if (valid(view.exec_vars[j][k])) {
        want.emplace_back(view.exec_vars[j][k].index, 1.0);
      }
      if (valid(view.urgent_vars[j][k])) {
        want.emplace_back(view.urgent_vars[j][k].index, 1.0);
      }
    }
    const std::size_t row_index = view.budget_constraints[j];
    const std::string object = "budget row of task " + tasks[j].name;
    if (j == i || want.empty()) {
      if (row_index != FormulationView::kNoConstraint) {
        report.add("MCS-F104", Severity::kError, object,
                   "budget row recorded for a task without placement "
                   "columns");
      }
      continue;
    }
    if (row_index == FormulationView::kNoConstraint ||
        row_index >= m.num_constraints()) {
      report.add("MCS-F104", Severity::kError, object,
                 "interference-budget row missing");
      continue;
    }
    const lp::RowView row = m.row(row_index);
    const double budget = tasks[j].priority > my_prio
                              ? 1.0
                              : static_cast<double>(expect.budgets[j]);
    std::string detail;
    if (row.relation != Relation::kLe) {
      report.add("MCS-F104", Severity::kError, object,
                 "budget row is not a <= constraint");
    } else if (row.rhs != budget) {
      report.add("MCS-F104", Severity::kError, object,
                 "right-hand side " + std::to_string(row.rhs) +
                     " differs from eta_j(t) + 1 = " +
                     std::to_string(budget) +
                     " re-derived from the arrival curve");
    } else if (!terms_equal(row.terms, want, &detail)) {
      report.add("MCS-F104", Severity::kError, object, detail);
    }
  }

  // --- Cancellation budget (R3 tightening, MCS-F105) -------------------------
  {
    Terms want;
    for (TaskIndex j = 0; j < n; ++j) {
      for (std::size_t k = 0; k + 1 < N; ++k) {
        if (valid(view.cancel_vars[j][k])) {
          want.emplace_back(view.cancel_vars[j][k].index, 1.0);
        }
      }
    }
    const std::size_t row_index = view.cancellation_budget_constraint;
    if (want.empty()) {
      if (row_index != FormulationView::kNoConstraint) {
        report.add("MCS-F105", Severity::kError, "cancellation_budget",
                   "budget row recorded without cancellation columns");
      }
    } else if (row_index == FormulationView::kNoConstraint ||
               row_index >= m.num_constraints()) {
      report.add("MCS-F105", Severity::kError, "cancellation_budget",
                 "cancellation-budget row missing");
    } else {
      const lp::RowView row = m.row(row_index);
      std::string detail;
      if (row.relation != Relation::kLe) {
        report.add("MCS-F105", Severity::kError, "cancellation_budget",
                   "budget row is not a <= constraint");
      } else if (row.rhs != expect.ls_release_budget) {
        report.add("MCS-F105", Severity::kError, "cancellation_budget",
                   "right-hand side " + std::to_string(row.rhs) +
                       " differs from the LS release budget " +
                       std::to_string(expect.ls_release_budget) +
                       " re-derived from the arrival curves");
      } else if (!terms_equal(row.terms, want, &detail)) {
        report.add("MCS-F105", Severity::kError, "cancellation_budget",
                   detail);
      }
    }
  }

  // --- CPU-side interval-length rows (Constraint 13, tick coefficients) ------
  for (std::size_t k = 0; k < N; ++k) {
    const std::string name = "delta_cpu_" + std::to_string(k);
    const std::optional<lp::RowView> row = named_row(name);
    if (!row) {
      report.add("MCS-F110", Severity::kError, name,
                 "CPU-side interval-length row missing");
      continue;
    }
    Terms want;
    // Model rows are normalized with exact zeros dropped; mirror that here
    // so zero tick parameters or a zero big-M compare equal.
    const auto push = [&want](std::size_t index, double coef) {
      if (coef != 0.0) want.emplace_back(index, coef);
    };
    push(view.delta_vars[k].index, 1.0);
    const double m_k = std::max(expect.cpu_ub[k], expect.dma_ub[k]);
    push(view.alpha_vars[k].index, -m_k);
    double rhs = 0.0;
    if (k == N - 1) {
      rhs = td(fcase == FormulationCase::kLsCaseB
                   ? tasks[i].copy_in + tasks[i].exec
                   : tasks[i].exec);
    } else {
      for (TaskIndex j = 0; j < n; ++j) {
        if (valid(view.exec_vars[j][k])) {
          push(view.exec_vars[j][k].index, -td(tasks[j].exec));
        }
        if (valid(view.urgent_vars[j][k])) {
          push(view.urgent_vars[j][k].index,
               -td(tasks[j].copy_in + tasks[j].exec));
        }
      }
    }
    std::string detail;
    if (row->relation != Relation::kLe || row->rhs != rhs) {
      report.add("MCS-F106", Severity::kError, name,
                 "right-hand side " + std::to_string(row->rhs) +
                     " differs from the tick re-derivation " +
                     std::to_string(rhs));
    } else if (!terms_equal(row->terms, want, &detail)) {
      report.add("MCS-F106", Severity::kError, name, detail);
    }
  }

  // --- Tick-unit integrality sweep (MCS-F106) --------------------------------
  // All formulation data derives from integer tick parameters and integer
  // release counts, so every finite number in the model must be integral.
  for (std::size_t c = 0; c < m.num_variables(); ++c) {
    const Variable& v = m.variables()[c];
    if ((std::isfinite(v.lower) && !integral(v.lower)) ||
        (std::isfinite(v.upper) && !integral(v.upper))) {
      report.add("MCS-F106", Severity::kError, col(m, VarId{c}),
                 "non-integral bound: formulation data must stay in whole "
                 "ticks");
    }
  }
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    const lp::RowView row = m.row(r);
    bool bad = !integral(row.rhs);
    for (const auto& [var, coef] : row.terms) {
      bad = bad || !integral(coef);
    }
    if (bad) {
      report.add("MCS-F106", Severity::kError,
                 row.name.empty() ? "row " + std::to_string(r)
                                  : std::string(row.name),
                 "non-integral coefficient or right-hand side: formulation "
                 "data must stay in whole ticks");
    }
  }

  return report;
}

}  // namespace mcs::check
