#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace mcs::lp {

namespace {

/// Normalizes `terms[begin, end)` in place (LinExpr::normalized's
/// arithmetic) and truncates `terms` after the merged range.
void normalize_terms(std::vector<Term>& terms, std::size_t begin) {
  const auto first = terms.begin() + static_cast<std::ptrdiff_t>(begin);
  if (first == terms.end()) return;
  // Already normal (strictly increasing indices, no zeros): merging would
  // rewrite every coefficient as 0.0 + coef, which is coef itself.
  bool normal = true;
  for (auto it = first; it != terms.end() && normal; ++it) {
    normal = std::abs(it->second) > 0.0 &&
             (it == first || (it - 1)->first < it->first);
  }
  if (normal) return;
  std::sort(first, terms.end(),
            [](const Term& a, const Term& b) { return a.first < b.first; });
  constexpr double kDropTol = 0.0;  // keep exact zeros out, nothing else
  auto out = first;
  std::size_t current = first->first;
  double acc = 0.0;
  for (auto it = first; it != terms.end(); ++it) {
    if (it->first != current) {
      if (std::abs(acc) > kDropTol) {
        *out++ = Term{current, acc};
      }
      current = it->first;
      acc = 0.0;
    }
    acc += it->second;
  }
  if (std::abs(acc) > kDropTol) {
    *out++ = Term{current, acc};
  }
  terms.erase(out, terms.end());
}

}  // namespace

void LinExpr::add_term(VarId v, double coef) {
  MCS_REQUIRE(v.index != static_cast<std::size_t>(-1),
              "add_term: invalid variable");
  terms_.emplace_back(v.index, coef);
}

LinExpr& LinExpr::operator+=(const LinExpr& other) {
  terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
  constant_ += other.constant_;
  return *this;
}

LinExpr& LinExpr::operator-=(const LinExpr& other) {
  for (const auto& [var, coef] : other.terms_) {
    terms_.emplace_back(var, -coef);
  }
  constant_ -= other.constant_;
  return *this;
}

LinExpr& LinExpr::operator*=(double factor) {
  for (auto& [var, coef] : terms_) {
    coef *= factor;
  }
  constant_ *= factor;
  return *this;
}

LinExpr LinExpr::normalized() const {
  LinExpr result;
  result.constant_ = constant_;
  result.terms_ = terms_;
  normalize_terms(result.terms_, 0);
  return result;
}

LinExpr term(VarId v, double coef) {
  LinExpr expr;
  expr.add_term(v, coef);
  return expr;
}

VarId Model::add_continuous(double lower, double upper, std::string name) {
  MCS_REQUIRE(lower <= upper, "add_continuous: lower > upper");
  MCS_REQUIRE(!std::isnan(lower) && !std::isnan(upper),
              "add_continuous: NaN bound");
  variables_.push_back(
      {lower, upper, VarType::kContinuous, std::move(name)});
  return VarId{variables_.size() - 1};
}

VarId Model::add_binary(std::string name) {
  variables_.push_back({0.0, 1.0, VarType::kBinary, std::move(name)});
  return VarId{variables_.size() - 1};
}

VarId Model::add_integer(double lower, double upper, std::string name) {
  MCS_REQUIRE(lower <= upper, "add_integer: lower > upper");
  variables_.push_back({lower, upper, VarType::kInteger, std::move(name)});
  return VarId{variables_.size() - 1};
}

void Model::reserve_constraints(std::size_t rows, std::size_t terms) {
  row_end_.reserve(rows);
  relations_.reserve(rows);
  rhs_.reserve(rows);
  name_end_.reserve(rows);
  terms_.reserve(terms);
}

void Model::add_constraint(const LinExpr& lhs, Relation relation,
                           const LinExpr& rhs, std::string_view name) {
  // The row is normalized in place at the tail of the term array: lhs
  // terms, then rhs terms negated — the sequence `lhs - rhs` holds.
  const std::size_t begin = terms_.size();
  terms_.insert(terms_.end(), lhs.terms().begin(), lhs.terms().end());
  for (const auto& [var, coef] : rhs.terms()) {
    terms_.emplace_back(var, -coef);
  }
  finish_row(begin, relation, -(lhs.constant() - rhs.constant()), name);
}

void Model::add_constraint(std::span<const Term> terms, Relation relation,
                           double rhs, std::string_view name) {
  const std::size_t begin = terms_.size();
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  finish_row(begin, relation, -(0.0 - rhs), name);
}

void Model::finish_row(std::size_t begin, Relation relation, double rhs,
                       std::string_view name) {
  normalize_terms(terms_, begin);
  for (std::size_t k = begin; k < terms_.size(); ++k) {
    const bool known = terms_[k].first < variables_.size();
    const bool finite = std::isfinite(terms_[k].second);
    if (!known || !finite) {
      terms_.resize(begin);  // leave the model as it was
      MCS_REQUIRE(known, "expression references unknown variable");
      MCS_REQUIRE(finite, "expression has non-finite coefficient");
    }
  }
  row_end_.push_back(terms_.size());
  relations_.push_back(relation);
  rhs_.push_back(rhs);
  names_.append(name);
  name_end_.push_back(names_.size());
}

void Model::set_objective(Sense sense, const LinExpr& objective) {
  LinExpr normal = objective.normalized();
  check_expr(normal);
  sense_ = sense;
  objective_ = std::move(normal);
}

void Model::set_bounds(VarId v, double lower, double upper) {
  MCS_REQUIRE(v.index < variables_.size(), "set_bounds: unknown variable");
  MCS_REQUIRE(lower <= upper, "set_bounds: lower > upper");
  variables_[v.index].lower = lower;
  variables_[v.index].upper = upper;
}

void Model::set_rhs(std::size_t constraint_index, double rhs) {
  MCS_REQUIRE(constraint_index < rhs_.size(), "set_rhs: unknown constraint");
  MCS_REQUIRE(std::isfinite(rhs), "set_rhs: rhs must be finite");
  rhs_[constraint_index] = rhs;
}

RowView Model::row(std::size_t r) const {
  MCS_REQUIRE(r < rhs_.size(), "row: unknown constraint");
  const std::size_t begin = r == 0 ? 0 : row_end_[r - 1];
  const std::size_t name_begin = r == 0 ? 0 : name_end_[r - 1];
  return RowView{
      std::span<const Term>(terms_.data() + begin, row_end_[r] - begin),
      relations_[r], rhs_[r],
      std::string_view(names_).substr(name_begin, name_end_[r] - name_begin)};
}

const Variable& Model::variable(VarId v) const {
  MCS_REQUIRE(v.index < variables_.size(), "variable: unknown variable");
  return variables_[v.index];
}

bool Model::has_integer_variables() const noexcept {
  return std::any_of(variables_.begin(), variables_.end(),
                     [](const Variable& v) {
                       return v.type != VarType::kContinuous &&
                              v.lower != v.upper;
                     });
}

double Model::evaluate(const LinExpr& expr,
                       const std::vector<double>& assignment) const {
  MCS_REQUIRE(assignment.size() == variables_.size(),
              "evaluate: assignment size mismatch");
  double value = expr.constant();
  for (const auto& [var, coef] : expr.terms()) {
    value += coef * assignment[var];
  }
  return value;
}

double Model::row_activity(std::size_t r,
                           const std::vector<double>& assignment) const {
  MCS_REQUIRE(assignment.size() == variables_.size(),
              "row_activity: assignment size mismatch");
  double value = 0.0;
  for (const auto& [var, coef] : row(r).terms) {
    value += coef * assignment[var];
  }
  return value;
}

bool Model::is_feasible(const std::vector<double>& assignment,
                        double eps) const {
  if (assignment.size() != variables_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    const Variable& v = variables_[i];
    if (assignment[i] < v.lower - eps || assignment[i] > v.upper + eps) {
      return false;
    }
    if (v.type != VarType::kContinuous &&
        std::abs(assignment[i] - std::round(assignment[i])) > eps) {
      return false;
    }
  }
  for (std::size_t r = 0; r < rhs_.size(); ++r) {
    const double lhs = row_activity(r, assignment);
    switch (relations_[r]) {
      case Relation::kLe:
        if (lhs > rhs_[r] + eps) return false;
        break;
      case Relation::kGe:
        if (lhs < rhs_[r] - eps) return false;
        break;
      case Relation::kEq:
        if (std::abs(lhs - rhs_[r]) > eps) return false;
        break;
    }
  }
  return true;
}

void Model::check_expr(const LinExpr& expr) const {
  for (const auto& [var, coef] : expr.terms()) {
    MCS_REQUIRE(var < variables_.size(),
                "expression references unknown variable");
    MCS_REQUIRE(std::isfinite(coef), "expression has non-finite coefficient");
  }
}

}  // namespace mcs::lp
