// Dense row-major matrix of doubles: the reference representation the
// test suite checks the library's CSR matrices against.
//
// The library keeps every CTMC matrix in CSR (linalg/sparse). This n x n
// form is the oracle side of the differential harness: dense GTH
// (diffharness/dense_gth), dense partial-pivot LU (diffharness/lu) and
// dense uniformization are written against it, and to_dense() expands a
// library matrix for entry-by-entry comparison.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/sparse/sparse_matrix.hpp"
#include "util/assert.hpp"

namespace nsrel::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool square() const { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    NSREL_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    NSREL_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; requires cols() == other.rows().
  [[nodiscard]] Matrix multiply(const Matrix& other) const;
  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    return a.multiply(b);
  }

  /// Matrix-vector product; requires cols() == v.size().
  [[nodiscard]] Vector multiply(const Vector& v) const;

  [[nodiscard]] Matrix transpose() const;

  /// Submatrix dropping one row and one column (used by adjugate-based
  /// identities in the appendix tests).
  [[nodiscard]] Matrix minor_matrix(std::size_t drop_row,
                                    std::size_t drop_col) const;

  /// Max absolute entry (infinity norm of the vectorization).
  [[nodiscard]] double max_abs() const;

  /// Row-sum norm (induced infinity norm).
  [[nodiscard]] double inf_norm() const;

  /// Column-sum norm (induced 1-norm) — the norm the Hager condition
  /// estimator works in.
  [[nodiscard]] double one_norm() const;

  [[nodiscard]] bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Expands a CSR matrix to dense (absent entries are 0.0).
[[nodiscard]] Matrix to_dense(const sparse::CsrMatrix& csr);

/// Euclidean norm.
[[nodiscard]] double norm2(const Vector& v);
/// Max-abs norm.
[[nodiscard]] double norm_inf(const Vector& v);
/// Dot product; requires equal sizes.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

}  // namespace nsrel::linalg
