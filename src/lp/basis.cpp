#include "lp/basis.hpp"

#include <cmath>

namespace mcs::lp {

bool EtaFile::append(const double* alpha, std::size_t pivot_row,
                     double min_pivot) {
  const double pivot = alpha[pivot_row];
  if (std::abs(pivot) <= min_pivot) {
    return false;
  }
  const double inv = 1.0 / pivot;
  // Branch-free compaction of the off-diagonal nonzeros into the scratch
  // rows: every row is written, and the write position advances past the
  // kept ones only.  The file then grows by exactly the kept entries.
  std::uint32_t* rows = scratch_row_.data();
  double* values = scratch_value_.data();
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    rows[n] = static_cast<std::uint32_t>(r);
    values[n] = alpha[r];
    n += static_cast<std::size_t>((alpha[r] != 0.0) & (r != pivot_row));
  }
  entry_row_.insert(entry_row_.end(), rows, rows + n);
  entry_value_.insert(entry_value_.end(), values, values + n);
  // A pure-diagonal eta with pivot 1 is the identity transform; skipping it
  // keeps the initial slack basis (an all +1 diagonal) free of charge.
  if (n == 0 && inv == 1.0) {
    return true;
  }
  pivot_row_.push_back(static_cast<std::uint32_t>(pivot_row));
  inv_pivot_.push_back(inv);
  entry_start_.push_back(entry_row_.size());
  return true;
}

void EtaFile::append_unit(std::size_t pivot_row, double pivot) {
  const double inv = 1.0 / pivot;
  if (inv == 1.0) {
    return;  // the identity transform, as in append()
  }
  pivot_row_.push_back(static_cast<std::uint32_t>(pivot_row));
  inv_pivot_.push_back(inv);
  entry_start_.push_back(entry_row_.size());
}

void EtaFile::ftran(double* x) const {
  const std::size_t n = eta_count();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = pivot_row_[k];
    const double xp = x[p];
    if (xp == 0.0) {
      continue;  // the transform only reads/writes through x[p]
    }
    const double t = xp * inv_pivot_[k];
    const std::size_t end = entry_start_[k + 1];
    for (std::size_t e = entry_start_[k]; e < end; ++e) {
      x[entry_row_[e]] -= entry_value_[e] * t;
    }
    x[p] = t;
  }
}

void EtaFile::btran(double* y) const {
  for (std::size_t k = eta_count(); k-- > 0;) {
    const std::size_t p = pivot_row_[k];
    double s = y[p];
    const std::size_t end = entry_start_[k + 1];
    for (std::size_t e = entry_start_[k]; e < end; ++e) {
      s -= entry_value_[e] * y[entry_row_[e]];
    }
    y[p] = s * inv_pivot_[k];
  }
}

}  // namespace mcs::lp
