// Compressed-sparse-column storage for the revised-simplex kernel
// (simplex_sparse.cpp).  Immutable after build: the simplex constraint
// matrix is baked once per solver; bound and rhs changes never touch the
// coefficients.  Column-major because most revised-simplex access patterns
// are column sweeps — FTRAN loads one column, pricing and the certificates
// take dot products of a dense row vector with many columns.  A row-major
// mirror (built once alongside) serves the pivot-row computation
// alpha = rho^T B^-1 A, which would otherwise gather one cache line per
// column.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcs::lp {

class SparseMatrix {
 public:
  SparseMatrix() = default;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return col_start_.empty() ? 0 : col_start_.size() - 1; }
  std::size_t nnz() const noexcept { return row_ind_.size(); }
  std::size_t column_nnz(std::size_t c) const noexcept {
    return col_start_[c + 1] - col_start_[c];
  }

  /// x += scale * A_c  (x is a dense row-space vector of size rows()).
  void axpy_column(std::size_t c, double scale, double* x) const {
    const std::size_t end = col_start_[c + 1];
    for (std::size_t k = col_start_[c]; k < end; ++k) {
      x[row_ind_[k]] += scale * values_[k];
    }
  }

  /// Returns <A_c, x>  (x is a dense row-space vector of size rows()).
  double dot_column(std::size_t c, const double* x) const {
    double acc = 0.0;
    const std::size_t end = col_start_[c + 1];
    for (std::size_t k = col_start_[c]; k < end; ++k) {
      acc += values_[k] * x[row_ind_[k]];
    }
    return acc;
  }

  /// Returns <|A_c|, |x|> — the magnitude companion of dot_column, used for
  /// magnitude-relative tolerances in the dual-certificate pricing pass.
  double abs_dot_column(std::size_t c, const double* x) const {
    double acc = 0.0;
    const std::size_t end = col_start_[c + 1];
    for (std::size_t k = col_start_[c]; k < end; ++k) {
      acc += std::abs(values_[k] * x[row_ind_[k]]);
    }
    return acc;
  }

  /// Scatters column `c` into the dense vector `x` (which the caller has
  /// zeroed), returning the column's largest absolute value.
  double scatter_column(std::size_t c, double* x) const {
    double mag = 0.0;
    const std::size_t end = col_start_[c + 1];
    for (std::size_t k = col_start_[c]; k < end; ++k) {
      x[row_ind_[k]] = values_[k];
      const double a = std::abs(values_[k]);
      if (a > mag) mag = a;
    }
    return mag;
  }

  /// acc += scale * (row r of A) over the row-major mirror: one sequential
  /// pass instead of a strided gather across every column.  Each column
  /// the row touches for the first time (mark[c] == 0) is marked and
  /// appended to touched[count..], so the caller can later visit — and
  /// clear — exactly the entries it accumulated into.  Returns the new
  /// count.  `touched` must have room for one entry past every column.
  std::size_t add_row_scaled(std::size_t r, double scale, double* acc,
                             char* mark, std::uint32_t* touched,
                             std::size_t count) const {
    const std::size_t end = row_start_[r + 1];
    for (std::size_t k = row_start_[r]; k < end; ++k) {
      const std::uint32_t c = col_ind_[k];
      acc[c] += scale * row_values_[k];
      touched[count] = c;  // kept only if c is new (branch-free append)
      count += static_cast<std::size_t>(mark[c] == 0);
      mark[c] = 1;
    }
    return count;
  }

  /// Accumulating builder: duplicate (row, col) entries are summed in
  /// insertion order, matching how the dense kernel folds repeated model
  /// terms into one tableau cell.
  class Builder {
   public:
    Builder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

    void add(std::size_t row, std::size_t col, double value) {
      entries_.push_back(Entry{row, col, entries_.size(), value});
    }

    SparseMatrix build() &&;

   private:
    struct Entry {
      std::size_t row;
      std::size_t col;
      std::size_t seq;  ///< insertion order, for deterministic accumulation
      double value;
    };
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Entry> entries_;
  };

 private:
  std::size_t rows_ = 0;
  std::vector<std::size_t> col_start_;  ///< size cols + 1
  std::vector<std::uint32_t> row_ind_;
  std::vector<double> values_;
  std::vector<std::size_t> row_start_;  ///< size rows + 1 (CSR mirror)
  std::vector<std::uint32_t> col_ind_;
  std::vector<double> row_values_;
};

}  // namespace mcs::lp
