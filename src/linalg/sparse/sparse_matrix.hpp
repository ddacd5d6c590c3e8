// The matrix representation of every CTMC solve in the library.
//
// The appendix recursion's absorption matrix at fault tolerance k has
// 2^(k+1)-1 rows but only ~3 nonzeros per row (a binary tree of failure
// edges plus one repair edge per state), so an n x n array would waste
// quadratic memory (128 MB at k = 11) on entries that are all zero.
// Triplets are the mutable assembly form (duplicates accumulate, like
// Chain::add_transition); CsrMatrix is the immutable compressed sparse
// row form the solvers consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nsrel::linalg {

using Vector = std::vector<double>;

}  // namespace nsrel::linalg

namespace nsrel::linalg::sparse {

/// One assembly entry: (row, col, value). Duplicate coordinates sum.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets: entries are bucketed by row, sorted by
  /// column, and duplicates accumulated IN TRIPLET ORDER (so assembly
  /// reproduces the exact floating-point sums a dense `+=` loop over
  /// the same triplets would produce). Exact zeros are kept — a stored
  /// zero and an absent entry are numerically identical everywhere the
  /// solvers look, and dropping them would change nothing but nnz().
  [[nodiscard]] static CsrMatrix from_triplets(
      std::size_t rows, std::size_t cols,
      const std::vector<Triplet>& triplets);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }
  [[nodiscard]] bool square() const { return rows_ == cols_; }

  /// CSR internals: row r's entries are [row_ptr()[r], row_ptr()[r+1])
  /// into col_index()/values(), columns strictly increasing per row.
  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col_index() const {
    return col_index_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Entry lookup by binary search within the row; 0.0 when absent.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// y = A^T x (the row-vector product x^T A). Requires x.size() ==
  /// rows(). Rows with x_r == 0 are skipped and the rest are visited in
  /// ascending order, so each y_j sums its terms in the order a dense
  /// loop over all of row r would, minus that loop's exact +0.0 terms.
  [[nodiscard]] Vector multiply_transposed(const Vector& x) const;

  /// Column-sum norm (induced 1-norm) — the Hager estimator's norm.
  [[nodiscard]] double one_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_index_;
  std::vector<double> values_;
};

}  // namespace nsrel::linalg::sparse
