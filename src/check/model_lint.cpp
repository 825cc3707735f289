#include "check/model_lint.hpp"

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mcs::check {

namespace {

using lp::Model;
using lp::Relation;
using lp::RowView;
using lp::Variable;
using lp::VarType;

std::string column_name(const Model& model, std::size_t index) {
  const std::string& name = model.variables()[index].name;
  std::string label = "column " + std::to_string(index);
  if (!name.empty()) {
    label += " (" + name + ")";
  }
  return label;
}

std::string row_name(const Model& model, std::size_t index) {
  const std::string_view name = model.row(index).name;
  std::string label = "row " + std::to_string(index);
  if (!name.empty()) {
    label.append(" (").append(name).append(")");
  }
  return label;
}

const char* relation_symbol(Relation relation) {
  switch (relation) {
    case Relation::kLe:
      return "<=";
    case Relation::kGe:
      return ">=";
    case Relation::kEq:
      return "=";
  }
  return "?";
}

std::string number(double value) {
  std::string text = std::to_string(value);
  // Trim trailing zeros for readability; keep at least one decimal digit.
  const std::size_t dot = text.find('.');
  if (dot != std::string::npos) {
    std::size_t last = text.find_last_not_of('0');
    if (last == dot) ++last;
    text.erase(last + 1);
  }
  return text;
}

/// True when the empty row `relation rhs` (i.e. `0 relation rhs`) holds.
bool empty_row_satisfiable(Relation relation, double rhs) {
  switch (relation) {
    case Relation::kLe:
      return 0.0 <= rhs;
    case Relation::kGe:
      return 0.0 >= rhs;
    case Relation::kEq:
      return rhs == 0.0;
  }
  return true;
}

}  // namespace

CheckReport lint_model(const Model& model) {
  CheckReport report;
  const std::size_t num_vars = model.num_variables();

  // --- Columns: bounds, types, names ---------------------------------------
  std::unordered_map<std::string, std::size_t> var_names;
  for (std::size_t i = 0; i < num_vars; ++i) {
    const Variable& v = model.variables()[i];
    if (std::isnan(v.lower) || std::isnan(v.upper) || v.lower > v.upper) {
      report.add("MCS-F001", Severity::kError, column_name(model, i),
                 "bounds [" + number(v.lower) + ", " + number(v.upper) +
                     "] are inverted or NaN");
    }
    if (v.type != VarType::kContinuous &&
        (std::isinf(v.lower) || std::isinf(v.upper))) {
      report.add("MCS-F002", Severity::kError, column_name(model, i),
                 "integral variable with an unbounded side");
    }
    if (v.type == VarType::kBinary && (v.lower < 0.0 || v.upper > 1.0)) {
      report.add("MCS-F003", Severity::kError, column_name(model, i),
                 "binary bounds [" + number(v.lower) + ", " +
                     number(v.upper) + "] leave [0, 1]");
    }
    if (!v.name.empty()) {
      const auto [it, inserted] = var_names.emplace(v.name, i);
      if (!inserted) {
        report.add("MCS-F007", Severity::kError, column_name(model, i),
                   "name already used by column " +
                       std::to_string(it->second));
      }
    }
  }

  // --- Rows: finiteness, emptiness, names, index validity ------------------
  std::vector<bool> referenced(num_vars, false);
  for (const auto& [var, coef] : model.objective().terms()) {
    if (var < num_vars) {
      referenced[var] = true;
    }
  }
  std::unordered_map<std::string, std::size_t> row_names;
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const RowView c = model.row(r);
    if (!std::isfinite(c.rhs)) {
      report.add("MCS-F002", Severity::kError, row_name(model, r),
                 "non-finite right-hand side");
    }
    for (const auto& [var, coef] : c.terms) {
      if (var >= num_vars) {
        report.add("MCS-F009", Severity::kError, row_name(model, r),
                   "references variable index " + std::to_string(var) +
                       " of " + std::to_string(num_vars));
        continue;
      }
      referenced[var] = true;
      if (!std::isfinite(coef)) {
        report.add("MCS-F002", Severity::kError, row_name(model, r),
                   "non-finite coefficient on " + column_name(model, var));
      }
    }
    if (c.terms.empty()) {
      if (empty_row_satisfiable(c.relation, c.rhs)) {
        report.add("MCS-F005", Severity::kWarning, row_name(model, r),
                   "no terms; `0 " + std::string(relation_symbol(c.relation)) +
                       " " + number(c.rhs) + "` is vacuous");
      } else {
        report.add("MCS-F006", Severity::kError, row_name(model, r),
                   "no terms; `0 " + std::string(relation_symbol(c.relation)) +
                       " " + number(c.rhs) + "` can never hold");
      }
    }
    if (!c.name.empty()) {
      const auto [it, inserted] = row_names.emplace(c.name, r);
      if (!inserted) {
        report.add("MCS-F008", Severity::kError, row_name(model, r),
                   "name already used by row " + std::to_string(it->second));
      }
    }
  }

  for (std::size_t i = 0; i < num_vars; ++i) {
    if (!referenced[i]) {
      report.add("MCS-F004", Severity::kWarning, column_name(model, i),
                 "appears in no constraint and not in the objective");
    }
  }
  return report;
}

namespace {

bool same_value(double a, double b, double tolerance) {
  if (std::isinf(a) || std::isinf(b)) {
    return a == b;
  }
  return std::abs(a - b) <= tolerance;
}

/// Compares two normalized (sorted, merged) term lists.
bool same_terms(std::span<const lp::Term> ta, std::span<const lp::Term> tb,
                double tolerance, std::string* detail) {
  if (ta.size() != tb.size()) {
    *detail = "term count " + std::to_string(ta.size()) + " vs " +
              std::to_string(tb.size());
    return false;
  }
  for (std::size_t k = 0; k < ta.size(); ++k) {
    if (ta[k].first != tb[k].first) {
      *detail = "term " + std::to_string(k) + " on column " +
                std::to_string(ta[k].first) + " vs " +
                std::to_string(tb[k].first);
      return false;
    }
    if (!same_value(ta[k].second, tb[k].second, tolerance)) {
      *detail = "coefficient on column " + std::to_string(ta[k].first) +
                ": " + number(ta[k].second) + " vs " + number(tb[k].second);
      return false;
    }
  }
  return true;
}

}  // namespace

CheckReport diff_models(const Model& a, const Model& b,
                        const DiffOptions& options) {
  CheckReport report;

  if (a.num_variables() != b.num_variables()) {
    report.add("MCS-F201", Severity::kError, "model",
               std::to_string(a.num_variables()) + " vs " +
                   std::to_string(b.num_variables()) + " columns");
    return report;  // positional comparison is meaningless past this point
  }
  for (std::size_t i = 0; i < a.num_variables(); ++i) {
    const Variable& va = a.variables()[i];
    const Variable& vb = b.variables()[i];
    if (!same_value(va.lower, vb.lower, options.tolerance) ||
        !same_value(va.upper, vb.upper, options.tolerance)) {
      report.add("MCS-F202", Severity::kError, column_name(a, i),
                 "bounds [" + number(va.lower) + ", " + number(va.upper) +
                     "] vs [" + number(vb.lower) + ", " + number(vb.upper) +
                     "]");
    }
    if (va.type != vb.type) {
      report.add("MCS-F202", Severity::kError, column_name(a, i),
                 "variable type differs");
    }
    if (options.compare_names && va.name != vb.name) {
      report.add("MCS-F202", Severity::kError, column_name(a, i),
                 "name '" + va.name + "' vs '" + vb.name + "'");
    }
  }

  if (a.num_constraints() != b.num_constraints()) {
    report.add("MCS-F203", Severity::kError, "model",
               std::to_string(a.num_constraints()) + " vs " +
                   std::to_string(b.num_constraints()) + " rows");
    return report;
  }
  for (std::size_t r = 0; r < a.num_constraints(); ++r) {
    const RowView ca = a.row(r);
    const RowView cb = b.row(r);
    if (ca.relation != cb.relation) {
      report.add("MCS-F204", Severity::kError, row_name(a, r),
                 std::string("relation ") + relation_symbol(ca.relation) +
                     " vs " + relation_symbol(cb.relation));
    }
    if (!same_value(ca.rhs, cb.rhs, options.tolerance)) {
      report.add("MCS-F204", Severity::kError, row_name(a, r),
                 "right-hand side " + number(ca.rhs) + " vs " +
                     number(cb.rhs));
    }
    std::string detail;
    if (!same_terms(ca.terms, cb.terms, options.tolerance, &detail)) {
      report.add("MCS-F204", Severity::kError, row_name(a, r), detail);
    }
    if (options.compare_names && ca.name != cb.name) {
      report.add("MCS-F204", Severity::kError, row_name(a, r),
                 "name '" + std::string(ca.name) + "' vs '" +
                     std::string(cb.name) + "'");
    }
  }

  if (a.objective_sense() != b.objective_sense()) {
    report.add("MCS-F205", Severity::kError, "objective", "sense differs");
  }
  if (!same_value(a.objective().constant(), b.objective().constant(),
                  options.tolerance)) {
    report.add("MCS-F205", Severity::kError, "objective",
               "constant " + number(a.objective().constant()) + " vs " +
                   number(b.objective().constant()));
  }
  std::string detail;
  if (!same_terms(a.objective().normalized().terms(),
                  b.objective().normalized().terms(), options.tolerance,
                  &detail)) {
    report.add("MCS-F205", Severity::kError, "objective", detail);
  }
  return report;
}

}  // namespace mcs::check
