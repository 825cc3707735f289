#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace mcs::lp::presolve {

const char* to_string(ReductionKind kind) noexcept {
  switch (kind) {
    case ReductionKind::kFixedColumn:
      return "fixed-column";
    case ReductionKind::kSingletonRow:
      return "singleton-row";
    case ReductionKind::kRedundantRow:
      return "redundant-row";
    case ReductionKind::kForcingRow:
      return "forcing-row";
    case ReductionKind::kDuplicateRow:
      return "duplicate-row";
    case ReductionKind::kBoundTightened:
      return "bound-tightened";
    case ReductionKind::kCoefficientTightened:
      return "coefficient-tightened";
  }
  return "unknown";
}

namespace {

/// Tolerance for deciding whether an integer-variable value is integral.
/// Looser than the feasibility tolerance: integrality drift accumulates
/// through divisions, feasibility drift only through sums.
constexpr double kIntegralityTol = 1e-6;

/// Mutable working copy of the model while reductions run.  Columns are
/// never erased (a fixed column keeps its slot so the postsolve map is a
/// direct index translation); rows are tombstoned via `alive`.
class Reducer {
 public:
  Reducer(const Model& model, const PresolveOptions& opt, Presolved* out)
      : model_(model), opt_(opt), out_(out) {
    const std::size_t m = model.num_constraints();
    cols_.reserve(model.num_variables());
    for (const Variable& v : model.variables()) {
      cols_.push_back(Col{v.lower, v.upper, v.type, false, 0.0});
    }
    terms_.reserve(model.num_terms());
    rows_.reserve(m);
    for (std::size_t r = 0; r < m; ++r) {
      const RowView c = model.row(r);
      const std::size_t begin = terms_.size();
      terms_.insert(terms_.end(), c.terms.begin(), c.terms.end());
      rows_.push_back(Row{begin, terms_.size(), c.relation, c.rhs, true});
    }
  }

  void run() {
    // Initial domain normalization: round integral bounds inward and fix
    // anything the caller already pinned (LS-marking patches fix binaries
    // by setting lower == upper).
    for (std::size_t c = 0; c < cols_.size() && !infeasible_; ++c) {
      normalize_domain(c);
    }
    while (changed_ && !infeasible_ && out_->stats.rounds < opt_.max_rounds) {
      changed_ = false;
      ++out_->stats.rounds;
      for (std::size_t r = 0; r < rows_.size() && !infeasible_; ++r) {
        process_row(r);
      }
      if (!infeasible_) {
        drop_duplicate_rows();
      }
    }
    emit();
  }

 private:
  struct Col {
    double lo = 0.0;
    double hi = 0.0;
    VarType type = VarType::kContinuous;
    bool fixed = false;
    double value = 0.0;
  };
  /// A row's live terms are terms_[begin, end), sorted by column index;
  /// substituting fixed columns out compacts them in place.
  struct Row {
    std::size_t begin = 0;
    std::size_t end = 0;
    Relation rel = Relation::kLe;
    double rhs = 0.0;
    bool alive = true;
    std::size_t size() const { return end - begin; }
  };

  std::span<Term> terms(const Row& row) {
    return {terms_.data() + row.begin, row.size()};
  }
  std::span<const Term> terms(const Row& row) const {
    return {terms_.data() + row.begin, row.size()};
  }

  double tol(double magnitude) const {
    return opt_.feasibility_tol * (1.0 + std::abs(magnitude));
  }
  static bool integral(const Col& c) {
    return c.type != VarType::kContinuous;
  }

  void note(ReductionKind kind, std::size_t index, double value,
            std::size_t aux) {
    out_->log.push_back(Reduction{kind, index, value, aux});
  }

  void fix(std::size_t ci, double v) {
    Col& c = cols_[ci];
    if (c.fixed) {
      if (std::abs(c.value - v) > tol(v)) infeasible_ = true;
      return;
    }
    c.fixed = true;
    c.value = v;
    c.lo = c.hi = v;
    note(ReductionKind::kFixedColumn, ci, v, kRemoved);
    ++out_->stats.cols_removed;
    changed_ = true;
  }

  /// Rounds integral bounds inward, checks emptiness, fixes width-0 domains.
  void normalize_domain(std::size_t ci) {
    Col& c = cols_[ci];
    if (c.fixed) return;
    if (integral(c)) {
      if (std::isfinite(c.lo)) c.lo = std::ceil(c.lo - kIntegralityTol);
      if (std::isfinite(c.hi)) c.hi = std::floor(c.hi + kIntegralityTol);
    }
    if (c.lo > c.hi + tol(c.lo)) {
      infeasible_ = true;
      return;
    }
    if (c.hi <= c.lo) fix(ci, c.lo);
  }

  /// Applies candidate lower bound `cand` to column `ci` if it is a real
  /// improvement.  Implied bounds never cut feasible points, so this is
  /// always exact.  `row` (for the log) is kRemoved for silent updates
  /// whose provenance is already logged (singleton-row folds).
  void tighten_lo(std::size_t ci, double cand, std::size_t row) {
    if (!std::isfinite(cand) || infeasible_) return;
    Col& c = cols_[ci];
    if (c.fixed) {
      if (cand > c.value + tol(c.value)) infeasible_ = true;
      return;
    }
    if (integral(c)) cand = std::ceil(cand - kIntegralityTol);
    // An infinite incumbent is always improvable — tol(-inf) is inf, so
    // the finite-difference gate below would wrongly report no gain and
    // the caller (fold_singleton) would drop the row without the bound.
    if (std::isfinite(c.lo) && cand - c.lo <= tol(c.lo)) {
      return;  // no significant improvement
    }
    if (cand > c.hi + tol(c.hi)) {
      infeasible_ = true;
      return;
    }
    c.lo = std::min(cand, c.hi);
    changed_ = true;
    if (row != kRemoved) {
      note(ReductionKind::kBoundTightened, ci, c.lo, row);
      ++out_->stats.bounds_tightened;
    }
    if (c.hi <= c.lo) fix(ci, c.lo);
  }

  void tighten_hi(std::size_t ci, double cand, std::size_t row) {
    if (!std::isfinite(cand) || infeasible_) return;
    Col& c = cols_[ci];
    if (c.fixed) {
      if (cand < c.value - tol(c.value)) infeasible_ = true;
      return;
    }
    if (integral(c)) cand = std::floor(cand + kIntegralityTol);
    // Mirror of tighten_lo: an infinite incumbent is always improvable.
    if (std::isfinite(c.hi) && c.hi - cand <= tol(c.hi)) return;
    if (cand < c.lo - tol(c.lo)) {
      infeasible_ = true;
      return;
    }
    c.hi = std::max(cand, c.lo);
    changed_ = true;
    if (row != kRemoved) {
      note(ReductionKind::kBoundTightened, ci, c.hi, row);
      ++out_->stats.bounds_tightened;
    }
    if (c.hi <= c.lo) fix(ci, c.lo);
  }

  void remove_row(std::size_t ri, ReductionKind kind, double value = 0.0,
                  std::size_t aux = kRemoved) {
    rows_[ri].alive = false;
    note(kind, ri, value, aux);
    ++out_->stats.rows_removed;
    changed_ = true;
  }

  /// Substitutes fixed columns out of the row (rhs absorbs their
  /// contribution) so the remaining terms are all live.
  void substitute_fixed(Row& row) {
    std::size_t w = row.begin;
    for (std::size_t i = row.begin; i < row.end; ++i) {
      const auto [v, a] = terms_[i];
      if (cols_[v].fixed) {
        row.rhs -= a * cols_[v].value;
      } else {
        terms_[w++] = terms_[i];
      }
    }
    row.end = w;
  }

  /// Disposes of a row whose live support is empty: drops it when the
  /// residual rhs is satisfied, flags infeasibility otherwise.
  void dispose_empty_row(std::size_t ri) {
    const Row& row = rows_[ri];
    const double t = tol(row.rhs);
    const bool sat = row.rel == Relation::kLe   ? 0.0 <= row.rhs + t
                     : row.rel == Relation::kGe ? 0.0 >= row.rhs - t
                                                : std::abs(row.rhs) <= t;
    if (sat) {
      remove_row(ri, ReductionKind::kRedundantRow);
    } else {
      infeasible_ = true;
    }
  }

  void process_row(std::size_t ri) {
    Row& row = rows_[ri];
    if (!row.alive) return;
    substitute_fixed(row);

    if (row.size() == 0) {
      dispose_empty_row(ri);
      return;
    }
    if (row.size() == 1) {
      fold_singleton(ri);
      return;
    }

    // Activity bounds over the current domains.
    double min_act = 0.0;
    double max_act = 0.0;
    bool min_fin = true;
    bool max_fin = true;
    for (const auto& [v, a] : terms(row)) {
      const Col& c = cols_[v];
      const double at_lo = a * c.lo;
      const double at_hi = a * c.hi;
      const double lo_c = a > 0.0 ? at_lo : at_hi;
      const double hi_c = a > 0.0 ? at_hi : at_lo;
      if (std::isfinite(lo_c)) {
        min_act += lo_c;
      } else {
        min_fin = false;
      }
      if (std::isfinite(hi_c)) {
        max_act += hi_c;
      } else {
        max_fin = false;
      }
    }
    const double act_tol = tol(std::max(std::abs(row.rhs),
                                        std::max(std::abs(min_act),
                                                 std::abs(max_act))));

    const bool need_le = row.rel != Relation::kGe;  // activity <= rhs side
    const bool need_ge = row.rel != Relation::kLe;  // activity >= rhs side

    if (need_le && min_fin && min_act > row.rhs + act_tol) {
      infeasible_ = true;
      return;
    }
    if (need_ge && max_fin && max_act < row.rhs - act_tol) {
      infeasible_ = true;
      return;
    }

    // Redundancy: the bounds alone already imply the row.
    const bool le_slack =
        !need_le || (max_fin && max_act <= row.rhs + act_tol);
    const bool ge_slack =
        !need_ge || (min_fin && min_act >= row.rhs - act_tol);
    if (le_slack && ge_slack) {
      remove_row(ri, ReductionKind::kRedundantRow);
      return;
    }

    // Forcing: the row is satisfiable only at one extreme bound vector.
    if (need_le && min_fin && min_act >= row.rhs - act_tol) {
      for (const auto& [v, a] : terms(row)) {
        fix(v, a > 0.0 ? cols_[v].lo : cols_[v].hi);
      }
      remove_row(ri, ReductionKind::kForcingRow);
      return;
    }
    if (need_ge && max_fin && max_act <= row.rhs + act_tol) {
      for (const auto& [v, a] : terms(row)) {
        fix(v, a > 0.0 ? cols_[v].hi : cols_[v].lo);
      }
      remove_row(ri, ReductionKind::kForcingRow);
      return;
    }

    // Bound tightening from residual activity.  Candidates come from the
    // activity snapshot above; tighten_* only ever improves, so stale
    // residuals are merely conservative.
    if (need_le && min_fin) {
      for (const auto& [v, a] : terms(row)) {
        const Col& c = cols_[v];
        const double residual =
            min_act - (a > 0.0 ? a * c.lo : a * c.hi);
        const double cand = (row.rhs - residual) / a;
        if (a > 0.0) {
          tighten_hi(v, cand, ri);
        } else {
          tighten_lo(v, cand, ri);
        }
        if (infeasible_) return;
      }
    }
    if (need_ge && max_fin) {
      for (const auto& [v, a] : terms(row)) {
        const Col& c = cols_[v];
        const double residual =
            max_act - (a > 0.0 ? a * c.hi : a * c.lo);
        const double cand = (row.rhs - residual) / a;
        if (a > 0.0) {
          tighten_lo(v, cand, ri);
        } else {
          tighten_hi(v, cand, ri);
        }
        if (infeasible_) return;
      }
    }

    // Big-M coefficient strengthening on pure <= rows over 0/1 columns.
    // For a binary x_j with coefficient a_j in  sum a x <= b  and
    // U_-j = max activity of the other terms:
    //   a_j > 0, 0 < b - U_-j < a_j:   a_j -= d, b -= d  with d = b - U_-j
    //     (x_j = 1 was feasible only when the rest sat below U_-j anyway;
    //      both integer-point sides are preserved exactly);
    //   a_j < 0, U_-j > b and U_-j < b - a_j:  a_j = -(U_-j - b)
    //     (shrinks the big-M to the smallest value that still deactivates
    //      the row at x_j = 1).
    // One application per row per round; the next round recomputes
    // activities before applying more.
    if (row.rel == Relation::kLe && max_fin && row.size() != 0) {
      for (auto& [v, a] : terms(row)) {
        const Col& c = cols_[v];
        if (!integral(c) || c.fixed || c.lo != 0.0 || c.hi != 1.0) continue;
        if (a > 0.0) {
          const double u_minus = max_act - a;  // x_j contributes a at hi=1
          const double d = row.rhs - u_minus;
          if (d > act_tol && d < a - act_tol) {
            a -= d;
            row.rhs -= d;
            note(ReductionKind::kCoefficientTightened, ri, a, v);
            ++out_->stats.coefficients_tightened;
            changed_ = true;
            break;
          }
        } else {
          const double u_minus = max_act;  // x_j contributes 0 at hi
          const double d = (row.rhs - a) - u_minus;
          if (u_minus > row.rhs + act_tol && d > act_tol) {
            a = -(u_minus - row.rhs);
            note(ReductionKind::kCoefficientTightened, ri, a, v);
            ++out_->stats.coefficients_tightened;
            changed_ = true;
            break;
          }
        }
      }
    }
  }

  void fold_singleton(std::size_t ri) {
    Row& row = rows_[ri];
    const auto [ci, a] = terms_[row.begin];
    MCS_ASSERT(a != 0.0, "presolve: zero coefficient survived normalization");
    const double v = row.rhs / a;
    switch (row.rel) {
      case Relation::kEq: {
        Col& c = cols_[ci];
        double val = v;
        if (integral(c)) {
          const double r = std::round(val);
          if (std::abs(val - r) > kIntegralityTol) {
            infeasible_ = true;
            return;
          }
          val = r;
        }
        if (val < c.lo - tol(c.lo) || val > c.hi + tol(c.hi)) {
          infeasible_ = true;
          return;
        }
        fix(ci, std::clamp(val, c.lo, c.hi));
        break;
      }
      case Relation::kLe:
        if (a > 0.0) {
          tighten_hi(ci, v, kRemoved);
        } else {
          tighten_lo(ci, v, kRemoved);
        }
        break;
      case Relation::kGe:
        if (a > 0.0) {
          tighten_lo(ci, v, kRemoved);
        } else {
          tighten_hi(ci, v, kRemoved);
        }
        break;
    }
    if (!infeasible_) {
      remove_row(ri, ReductionKind::kSingletonRow, v, ci);
    }
  }

  /// Rows sharing one term vector (the duplicate-row pass): the surviving
  /// row per relation, and `key`, the row whose terms the group matched.
  struct Bucket {
    std::size_t key = kRemoved;
    std::size_t eq = kRemoved;
    std::size_t le = kRemoved;
    std::size_t ge = kRemoved;
  };

  static std::uint64_t hash_terms(std::span<const Term> ts) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const auto& [v, a] : ts) {
      std::uint64_t bits = 0;  // rows hold no zeros, so no -0.0 either
      std::memcpy(&bits, &a, sizeof bits);
      for (const std::uint64_t x : {static_cast<std::uint64_t>(v), bits}) {
        h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
    }
    return h;
  }

  /// The bucket of row `r`'s terms in the open-addressing table `slots_`,
  /// created (keyed on `r`) when no earlier row has the same terms.
  Bucket& bucket_of(std::size_t r) {
    const auto ts = terms(rows_[r]);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash_terms(ts) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kRemoved) {
        slots_[i] = buckets_.size();
        buckets_.push_back(Bucket{r, kRemoved, kRemoved, kRemoved});
        return buckets_.back();
      }
      Bucket& b = buckets_[slots_[i]];
      const auto key = terms(rows_[b.key]);
      if (std::equal(ts.begin(), ts.end(), key.begin(), key.end())) return b;
    }
  }

  /// Removes rows whose term vectors are identical (terms are sorted by
  /// variable index, so equality is a direct range compare) keeping the
  /// dominating right-hand side per relation, and resolves <= / >= / ==
  /// interplay on the shared support.  Rows are grouped by hashing their
  /// terms; the groups with an interplay to resolve are then visited in
  /// lexicographic order of their terms.
  void drop_duplicate_rows() {
    buckets_.clear();
    std::size_t live = 0;
    for (const Row& row : rows_) {
      if (row.alive) ++live;
    }
    std::size_t capacity = 16;
    while (capacity < 2 * live) capacity *= 2;
    slots_.assign(capacity, kRemoved);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      Row& row = rows_[r];
      if (!row.alive) continue;
      substitute_fixed(row);
      if (row.size() == 0) continue;  // next round's process_row disposes
      Bucket& b = bucket_of(r);
      switch (row.rel) {
        case Relation::kEq:
          if (b.eq == kRemoved) {
            b.eq = r;
          } else if (std::abs(row.rhs - rows_[b.eq].rhs) >
                     tol(rows_[b.eq].rhs)) {
            infeasible_ = true;
            return;
          } else {
            remove_row(r, ReductionKind::kDuplicateRow, row.rhs, b.eq);
          }
          break;
        case Relation::kLe:
          if (b.le == kRemoved) {
            b.le = r;
          } else if (row.rhs < rows_[b.le].rhs) {
            remove_row(b.le, ReductionKind::kDuplicateRow, rows_[b.le].rhs,
                       r);
            b.le = r;
          } else {
            remove_row(r, ReductionKind::kDuplicateRow, row.rhs, b.le);
          }
          break;
        case Relation::kGe:
          if (b.ge == kRemoved) {
            b.ge = r;
          } else if (row.rhs > rows_[b.ge].rhs) {
            remove_row(b.ge, ReductionKind::kDuplicateRow, rows_[b.ge].rhs,
                       r);
            b.ge = r;
          } else {
            remove_row(r, ReductionKind::kDuplicateRow, row.rhs, b.ge);
          }
          break;
      }
    }
    mixed_.clear();
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      const Bucket& b = buckets_[k];
      const bool le = b.le != kRemoved;
      const bool ge = b.ge != kRemoved;
      if (b.eq != kRemoved ? le || ge : le && ge) mixed_.push_back(k);
    }
    std::sort(mixed_.begin(), mixed_.end(),
              [this](std::size_t x, std::size_t y) {
                const auto a = terms(rows_[buckets_[x].key]);
                const auto b = terms(rows_[buckets_[y].key]);
                return std::lexicographical_compare(a.begin(), a.end(),
                                                    b.begin(), b.end());
              });
    for (const std::size_t k : mixed_) {
      const Bucket& b = buckets_[k];
      if (b.eq != kRemoved) {
        const double eq_rhs = rows_[b.eq].rhs;
        if (b.le != kRemoved) {
          if (rows_[b.le].rhs >= eq_rhs - tol(eq_rhs)) {
            remove_row(b.le, ReductionKind::kDuplicateRow, rows_[b.le].rhs,
                       b.eq);
          } else {
            infeasible_ = true;
            return;
          }
        }
        if (b.ge != kRemoved) {
          if (rows_[b.ge].rhs <= eq_rhs + tol(eq_rhs)) {
            remove_row(b.ge, ReductionKind::kDuplicateRow, rows_[b.ge].rhs,
                       b.eq);
          } else {
            infeasible_ = true;
            return;
          }
        }
      } else if (b.le != kRemoved && b.ge != kRemoved) {
        if (rows_[b.le].rhs < rows_[b.ge].rhs - tol(rows_[b.ge].rhs)) {
          infeasible_ = true;
          return;
        }
        // Equal rhs would merge to an equality; both rows are kept — the
        // reduction must stay a pure removal for the map to hold.
      }
    }
  }

  /// Geometric-mean equilibration over the surviving submatrix: fills
  /// `rs` / `cs` in *original* row/column index space (dead rows and fixed
  /// columns keep 1).  Every scale is a power of two — snapped via
  /// exp2(round(log2(.))) — so applying it is exact in floating point.
  /// Integral columns are pinned at 1: their bounds and branching values
  /// must survive verbatim.
  void compute_scales(std::vector<double>* rs_out,
                      std::vector<double>* cs_out) const {
    std::vector<double>& rs = *rs_out;
    std::vector<double>& cs = *cs_out;
    rs.assign(rows_.size(), 1.0);
    cs.assign(cols_.size(), 1.0);
    const auto snap = [](double g) {
      return g > 0.0 && std::isfinite(g)
                 ? std::exp2(-std::round(std::log2(g)))
                 : 1.0;
    };
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> clo(cols_.size());
    std::vector<double> chi(cols_.size());
    // Two alternating row/column sweeps; the power-of-two rounding absorbs
    // any further refinement on these models.
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Row& row = rows_[r];
        if (!row.alive) continue;
        double lo = inf;
        double hi = 0.0;
        for (const auto& [v, a] : terms(row)) {
          const double m = std::abs(a) * cs[v];
          if (m == 0.0) continue;
          lo = std::min(lo, m);
          hi = std::max(hi, m);
        }
        if (hi > 0.0) rs[r] = snap(std::sqrt(lo * hi));
      }
      clo.assign(cols_.size(), inf);
      chi.assign(cols_.size(), 0.0);
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Row& row = rows_[r];
        if (!row.alive) continue;
        for (const auto& [v, a] : terms(row)) {
          const double m = std::abs(a) * rs[r];
          if (m == 0.0) continue;
          clo[v] = std::min(clo[v], m);
          chi[v] = std::max(chi[v], m);
        }
      }
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (cols_[c].fixed || integral(cols_[c])) continue;
        if (chi[c] > 0.0) cs[c] = snap(std::sqrt(clo[c] * chi[c]));
      }
    }
  }

  void emit() {
    // The round cap can leave fixings unsubstituted in surviving rows;
    // absorb them now and dispose of rows whose live support collapses to
    // empty — emitting an empty-LHS row would delegate a possible
    // infeasibility to whatever the solver does with degenerate rows.
    for (std::size_t r = 0; r < rows_.size() && !infeasible_; ++r) {
      Row& row = rows_[r];
      if (!row.alive) continue;
      substitute_fixed(row);
      if (row.size() == 0) dispose_empty_row(r);
    }

    PostsolveMap& map = out_->map;
    map.original_cols = cols_.size();
    map.original_rows = rows_.size();
    map.col_map.assign(cols_.size(), kRemoved);
    map.fixed_value.assign(cols_.size(), 0.0);
    map.row_map.assign(rows_.size(), kRemoved);

    if (infeasible_) {
      out_->infeasible = true;
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        map.fixed_value[c] = cols_[c].fixed ? cols_[c].value : cols_[c].lo;
      }
      support::telemetry::count("lp.presolve.infeasible");
      return;
    }

    // Equilibration scales, in original index space (all ones when the
    // pass is off or settles on the identity).  Applied while the reduced
    // model is built below; recorded in the map only when non-trivial so
    // the unscaled path stays bit-identical to `equilibrate = false`.
    std::vector<double> rs(rows_.size(), 1.0);
    std::vector<double> cs(cols_.size(), 1.0);
    bool scaled = false;
    if (opt_.equilibrate) {
      compute_scales(&rs, &cs);
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (rows_[r].alive && rs[r] != 1.0) {
          ++out_->stats.rows_scaled;
          scaled = true;
        }
      }
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (!cols_[c].fixed && cs[c] != 1.0) {
          ++out_->stats.cols_scaled;
          scaled = true;
        }
      }
    }

    Model& red = out_->reduced;
    std::size_t n_cols = 0;
    for (const Col& c : cols_) {
      if (!c.fixed) ++n_cols;
    }
    red.reserve_variables(n_cols);
    if (scaled) map.col_scale.reserve(n_cols);
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      const Col& col = cols_[c];
      if (col.fixed) {
        map.fixed_value[c] = col.value;
        continue;
      }
      const std::string& name = model_.variables()[c].name;
      VarId id{};
      switch (col.type) {
        case VarType::kContinuous:
          // Power-of-two division is exact; x_reduced = x / cs.
          id = red.add_continuous(col.lo / cs[c], col.hi / cs[c], name);
          break;
        case VarType::kBinary:
          id = red.add_binary(name);
          red.set_bounds(id, col.lo, col.hi);
          break;
        case VarType::kInteger:
          id = red.add_integer(col.lo, col.hi, name);
          break;
      }
      map.col_map[c] = id.index;
      if (scaled) map.col_scale.push_back(cs[c]);
    }

    std::size_t n_rows = 0;
    std::size_t n_terms = 0;
    for (const Row& r : rows_) {
      if (!r.alive) continue;
      ++n_rows;
      n_terms += r.size();
    }
    red.reserve_constraints(n_rows, n_terms);
    if (scaled) map.row_scale.reserve(n_rows);
    // Surviving columns keep their relative order, so each mapped row is
    // still sorted and add_constraint stores it as given.
    std::vector<Term> mapped;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      if (!row.alive) continue;
      mapped.clear();
      for (const auto& [v, a] : terms(row)) {
        mapped.emplace_back(map.col_map[v], a * rs[r] * cs[v]);
      }
      map.row_map[r] = red.num_constraints();
      if (scaled) map.row_scale.push_back(rs[r]);
      red.add_constraint(mapped, row.rel, row.rhs * rs[r],
                         model_.row(r).name);
    }

    // Objective: surviving terms map across; fixed columns fold into the
    // constant so objective values transfer between spaces unchanged.
    double constant = model_.objective().constant();
    LinExpr obj(0.0);
    for (const auto& [v, coef] : model_.objective().terms()) {
      if (cols_[v].fixed) {
        constant += coef * cols_[v].value;
      } else {
        // c * x == (c * cs) * (x / cs): objective values transfer exactly.
        obj.add_term(VarId{map.col_map[v]}, coef * cs[v]);
      }
    }
    obj += LinExpr(constant);
    red.set_objective(model_.objective_sense(), obj);

    namespace tel = support::telemetry;
    if (tel::enabled()) {
      tel::count("lp.presolve.runs");
      tel::count("lp.presolve.rows_removed",
                 static_cast<std::uint64_t>(out_->stats.rows_removed));
      tel::count("lp.presolve.cols_removed",
                 static_cast<std::uint64_t>(out_->stats.cols_removed));
      tel::count("lp.presolve.bounds_tightened",
                 static_cast<std::uint64_t>(out_->stats.bounds_tightened));
      tel::count("lp.presolve.coefficients_tightened",
                 static_cast<std::uint64_t>(out_->stats.coefficients_tightened));
      tel::count("lp.presolve.rows_scaled",
                 static_cast<std::uint64_t>(out_->stats.rows_scaled));
      tel::count("lp.presolve.cols_scaled",
                 static_cast<std::uint64_t>(out_->stats.cols_scaled));
    }
  }

  const Model& model_;
  PresolveOptions opt_;
  Presolved* out_;
  std::vector<Col> cols_;
  std::vector<Term> terms_;  ///< every row's terms, row after row
  std::vector<Row> rows_;
  // Duplicate-row pass scratch, reused across rounds.
  std::vector<std::size_t> slots_;
  std::vector<Bucket> buckets_;
  std::vector<std::size_t> mixed_;
  bool infeasible_ = false;
  bool changed_ = true;
};

}  // namespace

Presolved presolve(const Model& model, const PresolveOptions& options) {
  Presolved out;
  Reducer reducer(model, options, &out);
  reducer.run();
  return out;
}

}  // namespace mcs::lp::presolve
