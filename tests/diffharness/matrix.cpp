#include "diffharness/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace nsrel::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    NSREL_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  NSREL_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  NSREL_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix Matrix::multiply(const Matrix& other) const {
  NSREL_EXPECTS(cols_ == other.rows_);
  Matrix result(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        result(i, j) += a * other(k, j);
      }
    }
  }
  return result;
}

Vector Matrix::multiply(const Vector& v) const {
  NSREL_EXPECTS(cols_ == v.size());
  Vector result(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    result[i] = sum;
  }
  return result;
}

Matrix Matrix::transpose() const {
  Matrix result(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
  return result;
}

Matrix Matrix::minor_matrix(std::size_t drop_row, std::size_t drop_col) const {
  NSREL_EXPECTS(drop_row < rows_ && drop_col < cols_);
  NSREL_EXPECTS(rows_ > 1 && cols_ > 1);
  Matrix result(rows_ - 1, cols_ - 1);
  for (std::size_t i = 0, ri = 0; i < rows_; ++i) {
    if (i == drop_row) continue;
    for (std::size_t j = 0, rj = 0; j < cols_; ++j) {
      if (j == drop_col) continue;
      result(ri, rj) = (*this)(i, j);
      ++rj;
    }
    ++ri;
  }
  return result;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

double Matrix::inf_norm() const {
  double m = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row_sum += std::abs((*this)(i, j));
    m = std::max(m, row_sum);
  }
  return m;
}

double Matrix::one_norm() const {
  double m = 0.0;
  for (std::size_t j = 0; j < cols_; ++j) {
    double col_sum = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) col_sum += std::abs((*this)(i, j));
    m = std::max(m, col_sum);
  }
  return m;
}

Matrix to_dense(const sparse::CsrMatrix& csr) {
  Matrix dense(csr.rows(), csr.cols());
  for (std::size_t r = 0; r < csr.rows(); ++r) {
    for (std::size_t i = csr.row_ptr()[r]; i < csr.row_ptr()[r + 1]; ++i) {
      dense(r, csr.col_index()[i]) = csr.values()[i];
    }
  }
  return dense;
}

double norm2(const Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double dot(const Vector& a, const Vector& b) {
  NSREL_EXPECTS(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace nsrel::linalg
