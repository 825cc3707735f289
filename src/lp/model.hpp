// Linear / mixed-integer linear model representation.
//
// This is the CPLEX-replacement substrate: the schedulability analysis of
// the paper (Section V) builds its MILP through this interface and solves it
// with mcs::lp::solve_milp (branch & bound over the bounded-variable simplex
// in simplex.hpp).  The model is solver-agnostic plain data: variables with
// bounds and integrality, linear constraints, one linear objective.
//
// Constraints are stored flat: every row's normalized terms sit in one
// array, row after row (compressed sparse rows), next to per-row relation,
// right-hand side and name offset arrays.  Installing a row appends to
// those arrays and copying a model is a handful of vector copies, however
// many rows it has — the delay-MILP builder, presolve and branch & bound's
// root copy all lean on that.  Readers see a row through `RowView`.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcs::lp {

/// Positive/negative infinity used for unbounded variable sides.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType { kContinuous, kBinary, kInteger };
enum class Sense { kMinimize, kMaximize };
enum class Relation { kLe, kGe, kEq };

/// Opaque variable handle returned by Model::add_*.
struct VarId {
  std::size_t index = static_cast<std::size_t>(-1);
  friend bool operator==(VarId, VarId) = default;
};

/// One `(variable index, coefficient)` entry of an expression or a row.
using Term = std::pair<std::size_t, double>;

/// A linear expression `sum coef_j * x_j + constant`.
///
/// Terms may repeat a variable; they are merged when the expression is
/// normalized (Model does this when a constraint / objective is installed).
class LinExpr {
 public:
  LinExpr() = default;
  /*implicit*/ LinExpr(double constant) : constant_(constant) {}
  /*implicit*/ LinExpr(VarId v) { add_term(v, 1.0); }

  void add_term(VarId v, double coef);

  LinExpr& operator+=(const LinExpr& other);
  LinExpr& operator-=(const LinExpr& other);
  LinExpr& operator*=(double factor);

  friend LinExpr operator+(LinExpr lhs, const LinExpr& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend LinExpr operator-(LinExpr lhs, const LinExpr& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend LinExpr operator*(LinExpr expr, double factor) {
    expr *= factor;
    return expr;
  }
  friend LinExpr operator*(double factor, LinExpr expr) {
    expr *= factor;
    return expr;
  }

  const std::vector<Term>& terms() const noexcept { return terms_; }
  double constant() const noexcept { return constant_; }

  /// Returns a copy sorted by variable index, with repeated variables
  /// merged (their coefficients summed in sorted order) and exact zeros
  /// dropped.  Every stored row is normalized the same way.
  LinExpr normalized() const;

 private:
  std::vector<Term> terms_;
  double constant_ = 0.0;
};

/// Convenience: `coef * var` as an expression.
LinExpr term(VarId v, double coef);

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  VarType type = VarType::kContinuous;
  std::string name;
};

/// Read-only view of one stored constraint `sum terms relation rhs`.
/// Valid until the model it came from is changed or destroyed.
struct RowView {
  /// Normalized: sorted by variable index, no repeats, no exact zeros.
  std::span<const Term> terms;
  Relation relation = Relation::kLe;
  double rhs = 0.0;
  std::string_view name;
};

/// A mixed-integer linear model.
///
/// Invariants: every constraint references only variables added to this
/// model; binary variables have bounds within [0, 1].
class Model {
 public:
  /// Capacity hints for builders that know their final size (the delay-MILP
  /// builder derives exact counts): one reallocation instead of a
  /// doubling cascade on the hottest build path.
  void reserve_variables(std::size_t count) { variables_.reserve(count); }
  /// `rows` constraints holding `terms` terms in total (before merging).
  void reserve_constraints(std::size_t rows, std::size_t terms = 0);

  VarId add_continuous(double lower, double upper, std::string name = "");
  VarId add_binary(std::string name = "");
  VarId add_integer(double lower, double upper, std::string name = "");

  /// Installs `lhs relation rhs`; both sides may be arbitrary expressions,
  /// the stored form is `(lhs - rhs) relation 0` normalized, with the
  /// constant moved to the right: rhs = -(lhs.constant - rhs.constant).
  void add_constraint(const LinExpr& lhs, Relation relation,
                      const LinExpr& rhs, std::string_view name = {});

  /// Installs `sum terms relation rhs` without building an expression:
  /// `terms` may repeat a variable and come in any order, and the stored
  /// row is exactly the one the expression form above stores for
  /// `add_constraint(<terms>, relation, LinExpr(rhs))` — normalized terms,
  /// rhs = -(0.0 - rhs), so a zero rhs is kept as -0.0 there too.
  void add_constraint(std::span<const Term> terms, Relation relation,
                      double rhs, std::string_view name = {});

  void set_objective(Sense sense, const LinExpr& objective);

  /// Tightens the domain of an existing variable.  Used by branch & bound;
  /// also handy to fix variables (lower == upper).
  void set_bounds(VarId v, double lower, double upper);

  /// Replaces the (normalized) right-hand side of an existing constraint.
  /// Used to patch window-dependent budgets when a cached formulation is
  /// reused across fixpoint rounds instead of being rebuilt.
  void set_rhs(std::size_t constraint_index, double rhs);

  std::size_t num_variables() const noexcept { return variables_.size(); }
  std::size_t num_constraints() const noexcept { return rhs_.size(); }
  /// Stored terms over all rows.
  std::size_t num_terms() const noexcept { return terms_.size(); }
  const Variable& variable(VarId v) const;
  const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  /// Constraint `r` (0 <= r < num_constraints()).
  RowView row(std::size_t r) const;
  Sense objective_sense() const noexcept { return sense_; }
  const LinExpr& objective() const noexcept { return objective_; }

  bool has_integer_variables() const noexcept;

  /// Evaluates an expression under an assignment (one value per variable).
  double evaluate(const LinExpr& expr,
                  const std::vector<double>& assignment) const;
  /// Left-hand side of constraint `r` under an assignment.
  double row_activity(std::size_t r,
                      const std::vector<double>& assignment) const;

  /// True iff `assignment` satisfies all constraints and variable bounds
  /// within tolerance `eps` (integrality is checked for integer variables).
  bool is_feasible(const std::vector<double>& assignment, double eps) const;

 private:
  void check_expr(const LinExpr& expr) const;
  /// Normalizes the terms appended since `begin` into the next row.
  void finish_row(std::size_t begin, Relation relation, double rhs,
                  std::string_view name);

  std::vector<Variable> variables_;
  // Row r: terms_[row_end_[r - 1], row_end_[r]) (from 0 for r = 0),
  // relations_[r], rhs_[r] and name names_[name_end_[r - 1], name_end_[r]).
  std::vector<Term> terms_;
  std::vector<std::size_t> row_end_;
  std::vector<Relation> relations_;
  std::vector<double> rhs_;
  std::string names_;
  std::vector<std::size_t> name_end_;
  LinExpr objective_;
  Sense sense_ = Sense::kMinimize;
};

}  // namespace mcs::lp
