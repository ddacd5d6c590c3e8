#include "linalg/sparse/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::linalg::sparse {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   const std::vector<Triplet>& triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);

  // Counting sort by row keeps the per-cell accumulation in triplet
  // order: a stable bucket pass, then a stable in-row column sort, then
  // a left-to-right merge of equal coordinates.
  std::vector<std::size_t> row_count(rows, 0);
  for (const Triplet& t : triplets) {
    NSREL_EXPECTS(t.row < rows && t.col < cols);
    ++row_count[t.row];
  }
  std::vector<std::size_t> offset(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    offset[r + 1] = offset[r] + row_count[r];
  }
  std::vector<Triplet> sorted(triplets.size());
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (const Triplet& t : triplets) sorted[cursor[t.row]++] = t;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::stable_sort(sorted.begin() + static_cast<std::ptrdiff_t>(offset[r]),
                     sorted.begin() + static_cast<std::ptrdiff_t>(offset[r + 1]),
                     [](const Triplet& a, const Triplet& b) {
                       return a.col < b.col;
                     });
  }

  m.col_index_.reserve(sorted.size());
  m.values_.reserve(sorted.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = offset[r]; i < offset[r + 1]; ++i) {
      // row_ptr_[r + 1] counts row r's entries during this loop (prefix
      // sums happen below), so a positive count means col_index_.back()
      // belongs to THIS row and equal columns must merge.
      if (m.row_ptr_[r + 1] > 0 && m.col_index_.back() == sorted[i].col) {
        m.values_.back() += sorted[i].value;
        continue;
      }
      m.col_index_.push_back(sorted[i].col);
      m.values_.push_back(sorted[i].value);
      ++m.row_ptr_[r + 1];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  NSREL_EXPECTS(row < rows_ && col < cols_);
  const auto begin =
      col_index_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end =
      col_index_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(col));
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_index_.begin())];
}

Vector CsrMatrix::multiply_transposed(const Vector& x) const {
  NSREL_EXPECTS(x.size() == rows_);
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      y[col_index_[i]] += values_[i] * xr;
    }
  }
  return y;
}

double CsrMatrix::one_norm() const {
  std::vector<double> column_sum(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      column_sum[col_index_[i]] += std::abs(values_[i]);
    }
  }
  double max = 0.0;
  for (const double s : column_sum) max = std::max(max, s);
  return max;
}

}  // namespace nsrel::linalg::sparse
