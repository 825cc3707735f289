// Product-form-inverse (PFI) representation of a simplex basis for the
// sparse revised-simplex kernel (simplex_sparse.cpp).
//
// The basis inverse is held as a product of elementary "eta" transforms,
// one per pivot: after a pivot in position p with FTRANed entering column
// alpha = B^-1 a_q, the new inverse is E^-1 B^-1 where E is the identity
// with column p replaced by alpha.  FTRAN applies the transforms in append
// order; BTRAN applies them transposed in reverse order.  The file grows by
// one eta per pivot and is periodically collapsed by refactorization
// (rebuilding the chain from the current basis columns), which both bounds
// the per-application cost and discards accumulated round-off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcs::lp {

class EtaFile {
 public:
  /// Resets to the identity on `rows` rows, discarding every eta.
  void reset(std::size_t rows) {
    rows_ = rows;
    pivot_row_.clear();
    inv_pivot_.clear();
    entry_start_.assign(1, 0);
    entry_row_.clear();
    entry_value_.clear();
    scratch_row_.resize(rows);
    scratch_value_.resize(rows);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t eta_count() const noexcept { return pivot_row_.size(); }
  /// Total off-diagonal entries across all etas (the file's memory and
  /// per-application cost driver; refactorization policy watches this).
  std::size_t eta_entries() const noexcept { return entry_row_.size(); }

  /// Appends the eta for a pivot in row `pivot_row` with FTRANed column
  /// `alpha` (dense, size rows()).  Returns false — appending nothing —
  /// when the pivot element's magnitude is `min_pivot` or below.
  bool append(const double* alpha, std::size_t pivot_row, double min_pivot);

  /// Appends the eta of a column that FTRANs to `pivot` times the unit
  /// vector of `pivot_row` — what append() stores for such a column, in
  /// O(1) instead of a scan of all rows.
  void append_unit(std::size_t pivot_row, double pivot);

  /// x <- B^-1 x (dense vector of size rows()).
  void ftran(double* x) const;

  /// y^T <- y^T B^-1 (dense vector of size rows()).
  void btran(double* y) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> pivot_row_;
  std::vector<double> inv_pivot_;
  std::vector<std::size_t> entry_start_;  ///< size eta_count() + 1
  std::vector<std::uint32_t> entry_row_;
  std::vector<double> entry_value_;
  std::vector<std::uint32_t> scratch_row_;  ///< size rows(), append() only
  std::vector<double> scratch_value_;       ///< size rows(), append() only
};

}  // namespace mcs::lp
