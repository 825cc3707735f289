#include "check/presolve_audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace mcs::check {

namespace {

using lp::Model;
using lp::Relation;
using lp::RowView;
using lp::Variable;
using lp::VarType;
using lp::presolve::kRemoved;
using lp::presolve::PostsolveMap;
using lp::presolve::Presolved;
using lp::presolve::Reduction;
using lp::presolve::ReductionKind;

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

std::string number(double value) {
  std::string text = std::to_string(value);
  const std::size_t dot = text.find('.');
  if (dot != std::string::npos) {
    std::size_t last = text.find_last_not_of('0');
    if (last == dot) ++last;
    text.erase(last + 1);
  }
  return text;
}

/// Scale-relative comparison tolerance around magnitude `m`.
double tol_at(double base, double m) { return base * (1.0 + std::abs(m)); }

/// Checks that `map` (original index -> reduced index or kRemoved) is a
/// monotone embedding onto exactly [0, reduced_count): surviving entries
/// strictly increase and are dense.  Reports under `rule` on failure.
void check_embedding(const std::vector<std::size_t>& map,
                     std::size_t reduced_count, const char* what,
                     CheckReport* report) {
  std::size_t expected = 0;
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map[i] == kRemoved) {
      continue;
    }
    if (map[i] != expected) {
      report->add("MCS-F301", Severity::kError,
                  std::string(what) + " map",
                  "entry " + std::to_string(i) + " maps to " +
                      std::to_string(map[i]) + ", expected " +
                      std::to_string(expected) +
                      " (not a monotone dense embedding)");
      return;
    }
    ++expected;
  }
  if (expected != reduced_count) {
    report->add("MCS-F301", Severity::kError, std::string(what) + " map",
                std::to_string(expected) + " surviving entries vs " +
                    std::to_string(reduced_count) + " in the reduced model");
  }
}

}  // namespace

CheckReport audit_presolve(const Model& original, const Presolved& presolved) {
  CheckReport report;
  const PostsolveMap& map = presolved.map;

  // --- F301: map dimensions cover the pristine model -----------------------
  if (map.original_cols != original.num_variables() ||
      map.col_map.size() != original.num_variables() ||
      map.fixed_value.size() != original.num_variables()) {
    report.add("MCS-F301", Severity::kError, "column map",
               "map covers " + std::to_string(map.original_cols) +
                   " columns, model has " +
                   std::to_string(original.num_variables()));
    return report;  // index-based checks below would be meaningless
  }
  if (map.original_rows != original.num_constraints() ||
      map.row_map.size() != original.num_constraints()) {
    report.add("MCS-F301", Severity::kError, "row map",
               "map covers " + std::to_string(map.original_rows) +
                   " rows, model has " +
                   std::to_string(original.num_constraints()));
    return report;
  }

  if (presolved.infeasible) {
    // No reduced model to compare against; the infeasibility verdict itself
    // is cross-checked by the differential tests, not by this audit.
    return report;
  }

  const Model& reduced = presolved.reduced;
  check_embedding(map.col_map, reduced.num_variables(), "column", &report);
  check_embedding(map.row_map, reduced.num_constraints(), "row", &report);

  // --- F301: equilibration scales are well-formed --------------------------
  // Empty vectors mean the identity; non-empty ones must cover the reduced
  // dimensions exactly and hold positive powers of two (the exactness of
  // postsolve rests on that), with integral columns left unscaled.
  const auto power_of_two = [](double v) {
    int exp = 0;
    return std::isfinite(v) && v > 0.0 && std::frexp(v, &exp) == 0.5;
  };
  if (!map.row_scale.empty() &&
      map.row_scale.size() != reduced.num_constraints()) {
    report.add("MCS-F301", Severity::kError, "row scales",
               std::to_string(map.row_scale.size()) + " scales vs " +
                   std::to_string(reduced.num_constraints()) +
                   " reduced rows");
  }
  if (!map.col_scale.empty() &&
      map.col_scale.size() != reduced.num_variables()) {
    report.add("MCS-F301", Severity::kError, "column scales",
               std::to_string(map.col_scale.size()) + " scales vs " +
                   std::to_string(reduced.num_variables()) +
                   " reduced columns");
  }
  for (std::size_t i = 0; i < map.row_scale.size(); ++i) {
    if (!power_of_two(map.row_scale[i])) {
      report.add("MCS-F301", Severity::kError,
                 "row scale " + std::to_string(i),
                 number(map.row_scale[i]) +
                     " is not a positive power of two");
      break;
    }
  }
  for (std::size_t j = 0;
       j < map.col_scale.size() && j < reduced.num_variables(); ++j) {
    if (!power_of_two(map.col_scale[j])) {
      report.add("MCS-F301", Severity::kError,
                 "column scale " + std::to_string(j),
                 number(map.col_scale[j]) +
                     " is not a positive power of two");
      break;
    }
    if (reduced.variables()[j].type != VarType::kContinuous &&
        map.col_scale[j] != 1.0) {
      report.add("MCS-F301", Severity::kError,
                 "column scale " + std::to_string(j),
                 "integral column scaled by " + number(map.col_scale[j]));
      break;
    }
  }

  // --- F301: the log, the stats, and the map agree on what was removed ----
  std::size_t logged_col_fixes = 0;
  std::size_t logged_row_removals = 0;
  std::size_t logged_bounds = 0;
  std::size_t logged_coefs = 0;
  for (const Reduction& entry : presolved.log) {
    switch (entry.kind) {
      case ReductionKind::kFixedColumn:
        ++logged_col_fixes;
        if (entry.index >= map.col_map.size()) {
          report.add("MCS-F301", Severity::kError, "reduction log",
                     "fixed-column entry references column " +
                         std::to_string(entry.index) + " of " +
                         std::to_string(map.col_map.size()));
        } else if (map.col_map[entry.index] != kRemoved) {
          report.add("MCS-F301", Severity::kError,
                     column_name(original, entry.index),
                     "logged as fixed but still present in the map");
        }
        break;
      case ReductionKind::kSingletonRow:
      case ReductionKind::kRedundantRow:
      case ReductionKind::kForcingRow:
      case ReductionKind::kDuplicateRow:
        ++logged_row_removals;
        if (entry.index >= map.row_map.size()) {
          report.add("MCS-F301", Severity::kError, "reduction log",
                     "row-removal entry references row " +
                         std::to_string(entry.index) + " of " +
                         std::to_string(map.row_map.size()));
        } else if (map.row_map[entry.index] != kRemoved) {
          report.add("MCS-F301", Severity::kError,
                     row_name(original, entry.index),
                     "logged as removed but still present in the map");
        }
        break;
      case ReductionKind::kBoundTightened:
        ++logged_bounds;
        break;
      case ReductionKind::kCoefficientTightened:
        ++logged_coefs;
        break;
    }
  }

  std::size_t map_col_removals = 0;
  for (const std::size_t target : map.col_map) {
    if (target == kRemoved) ++map_col_removals;
  }
  std::size_t map_row_removals = 0;
  for (const std::size_t target : map.row_map) {
    if (target == kRemoved) ++map_row_removals;
  }

  if (logged_col_fixes != map_col_removals ||
      logged_col_fixes != presolved.stats.cols_removed) {
    report.add("MCS-F301", Severity::kError, "column removals",
               "log says " + std::to_string(logged_col_fixes) +
                   ", map says " + std::to_string(map_col_removals) +
                   ", stats say " +
                   std::to_string(presolved.stats.cols_removed));
  }
  if (logged_row_removals != map_row_removals ||
      logged_row_removals != presolved.stats.rows_removed) {
    report.add("MCS-F301", Severity::kError, "row removals",
               "log says " + std::to_string(logged_row_removals) +
                   ", map says " + std::to_string(map_row_removals) +
                   ", stats say " +
                   std::to_string(presolved.stats.rows_removed));
  }
  if (logged_bounds != presolved.stats.bounds_tightened) {
    report.add("MCS-F301", Severity::kError, "bound tightenings",
               "log says " + std::to_string(logged_bounds) + ", stats say " +
                   std::to_string(presolved.stats.bounds_tightened));
  }
  if (logged_coefs != presolved.stats.coefficients_tightened) {
    report.add("MCS-F301", Severity::kError, "coefficient tightenings",
               "log says " + std::to_string(logged_coefs) + ", stats say " +
                   std::to_string(presolved.stats.coefficients_tightened));
  }

  // --- F302: surviving domains shrank, fixed values stayed inside ----------
  // The containment tolerance matches the presolve default: reductions on
  // the integral analysis models have true slack >= 1 tick, so anything
  // past summation noise is a real widening.
  constexpr double kTol = 1e-9;
  for (std::size_t i = 0; i < original.num_variables(); ++i) {
    const Variable& ov = original.variables()[i];
    const std::size_t j = map.col_map[i];
    if (j == kRemoved) {
      const double value = map.fixed_value[i];
      if (value < ov.lower - tol_at(kTol, ov.lower) ||
          value > ov.upper + tol_at(kTol, ov.upper)) {
        report.add("MCS-F302", Severity::kError, column_name(original, i),
                   "fixed at " + number(value) + " outside original bounds [" +
                       number(ov.lower) + ", " + number(ov.upper) + "]");
      }
      if (ov.type != VarType::kContinuous &&
          std::abs(value - std::round(value)) > 1e-6) {
        report.add("MCS-F302", Severity::kError, column_name(original, i),
                   "integral column fixed at non-integral " + number(value));
      }
      continue;
    }
    if (j >= reduced.num_variables()) {
      continue;  // already reported by check_embedding
    }
    const Variable& rv = reduced.variables()[j];
    // Reduced bounds live in scaled space; translate back through the
    // (positive, power-of-two) column scale before the containment check.
    const double cs = j < map.col_scale.size() ? map.col_scale[j] : 1.0;
    const double lower = rv.lower * cs;
    const double upper = rv.upper * cs;
    if (lower < ov.lower - tol_at(kTol, ov.lower) ||
        upper > ov.upper + tol_at(kTol, ov.upper)) {
      report.add("MCS-F302", Severity::kError, column_name(original, i),
                 "reduced bounds [" + number(lower) + ", " +
                     number(upper) + "] are not within original [" +
                     number(ov.lower) + ", " + number(ov.upper) + "]");
    }
    if (rv.type != ov.type) {
      report.add("MCS-F302", Severity::kError, column_name(original, i),
                 "variable type changed by presolve");
    }
  }

  return report;
}

CheckReport audit_postsolve(const Model& original,
                            const std::vector<double>& values,
                            double reported_objective,
                            const PostsolveAuditOptions& options) {
  CheckReport report;
  if (values.size() != original.num_variables()) {
    report.add("MCS-F303", Severity::kError, "solution",
               std::to_string(values.size()) + " values vs " +
                   std::to_string(original.num_variables()) +
                   " model columns");
    return report;
  }

  // --- F303: bounds, integrality, rows — all in the pristine model ---------
  for (std::size_t i = 0; i < original.num_variables(); ++i) {
    const Variable& v = original.variables()[i];
    const double x = values[i];
    if (x < v.lower - tol_at(options.feasibility_tol, v.lower) ||
        x > v.upper + tol_at(options.feasibility_tol, v.upper)) {
      report.add("MCS-F303", Severity::kError, column_name(original, i),
                 "value " + number(x) + " violates bounds [" +
                     number(v.lower) + ", " + number(v.upper) + "]");
    }
    if (v.type != VarType::kContinuous &&
        std::abs(x - std::round(x)) > options.feasibility_tol) {
      report.add("MCS-F303", Severity::kError, column_name(original, i),
                 "integral column holds non-integral " + number(x));
    }
  }
  for (std::size_t r = 0; r < original.num_constraints(); ++r) {
    const RowView c = original.row(r);
    const double activity = original.row_activity(r, values);
    const double row_tol =
        options.feasibility_tol *
        (1.0 + std::abs(c.rhs) + std::abs(activity));
    const bool violated = (c.relation == Relation::kLe &&
                           activity > c.rhs + row_tol) ||
                          (c.relation == Relation::kGe &&
                           activity < c.rhs - row_tol) ||
                          (c.relation == Relation::kEq &&
                           std::abs(activity - c.rhs) > row_tol);
    if (violated) {
      report.add("MCS-F303", Severity::kError, row_name(original, r),
                 "activity " + number(activity) +
                     " violates right-hand side " + number(c.rhs));
    }
  }

  // --- F304: objective passes through postsolve unchanged ------------------
  const double objective = original.evaluate(original.objective(), values);
  const double obj_tol =
      options.objective_tol *
      (1.0 + std::max(std::abs(objective), std::abs(reported_objective)));
  if (std::abs(objective - reported_objective) > obj_tol) {
    report.add("MCS-F304", Severity::kError, "objective",
               "pristine-model objective " + number(objective) +
                   " vs reported " + number(reported_objective));
  }
  return report;
}

}  // namespace mcs::check
