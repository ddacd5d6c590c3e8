#include "diffharness/lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>

namespace nsrel::linalg {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  NSREL_EXPECTS(lu_.square());
  original_one_norm_ = lu_.one_norm();
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at or below diagonal.
    std::size_t pivot_row = col;
    double pivot_mag = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag == 0.0) {
      singular_ = true;
      return;
    }
    if (pivot_row != col) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_(pivot_row, j), lu_(col, j));
      std::swap(piv_[pivot_row], piv_[col]);
      pivot_sign_ = -pivot_sign_;
    }
    const double pivot = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / pivot;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = col + 1; j < n; ++j)
        lu_(r, j) -= factor * lu_(col, j);
    }
  }
}

double LuDecomposition::determinant() const {
  if (singular_) return 0.0;
  double det = static_cast<double>(pivot_sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

Vector LuDecomposition::solve(const Vector& b) const {
  NSREL_EXPECTS(!singular_);
  const std::size_t n = lu_.rows();
  NSREL_EXPECTS(b.size() == n);
  // Apply permutation, then forward substitution (unit lower triangle).
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  }
  // Back substitution (upper triangle).
  for (std::size_t ip1 = n; ip1 > 0; --ip1) {
    const std::size_t i = ip1 - 1;
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
    x[i] /= lu_(i, i);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  NSREL_EXPECTS(!singular_);
  NSREL_EXPECTS(b.rows() == lu_.rows());
  Matrix x(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) column[i] = b(i, j);
    const Vector solved = solve(column);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = solved[i];
  }
  return x;
}

Vector LuDecomposition::solve_transposed(const Vector& b) const {
  NSREL_EXPECTS(!singular_);
  const std::size_t n = lu_.rows();
  NSREL_EXPECTS(b.size() == n);
  // A^T = U^T L^T P, so solve U^T y = b, then L^T z = y, then undo P.
  Vector y = b;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) y[i] -= lu_(j, i) * y[j];
    y[i] /= lu_(i, i);
  }
  for (std::size_t ip1 = n; ip1 > 0; --ip1) {
    const std::size_t i = ip1 - 1;
    for (std::size_t j = i + 1; j < n; ++j) y[i] -= lu_(j, i) * y[j];
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[piv_[i]] = y[i];
  return x;
}

Matrix LuDecomposition::inverse() const {
  NSREL_EXPECTS(!singular_);
  return solve(Matrix::identity(lu_.rows()));
}

double LuDecomposition::rcond_estimate() const {
  if (singular_) return 0.0;
  const std::size_t n = lu_.rows();

  // Hager's 1-norm estimator (Higham's algorithm 2.4): walk toward the
  // column of A^{-1} with the largest 1-norm using only solves with A
  // and A^T. Deterministic: starts from the uniform vector, breaks ties
  // toward the lowest index, and converges in a few iterations.
  Vector x(n, 1.0 / static_cast<double>(n));
  double inv_norm = 0.0;
  std::size_t previous_pick = n;  // sentinel: no unit vector picked yet
  for (int iteration = 0; iteration < 5; ++iteration) {
    const Vector y = solve(x);  // y = A^{-1} x
    double y_norm = 0.0;
    for (const double v : y) y_norm += std::abs(v);
    inv_norm = std::max(inv_norm, y_norm);

    Vector sign(n);
    for (std::size_t i = 0; i < n; ++i) sign[i] = y[i] >= 0.0 ? 1.0 : -1.0;
    const Vector z = solve_transposed(sign);  // z = A^{-T} sign(y)

    std::size_t pick = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::abs(z[i]) > std::abs(z[pick])) pick = i;
    }
    // Converged when the subgradient says no unit vector improves on the
    // current iterate (or we would revisit the same column).
    if (std::abs(z[pick]) <= dot(z, x) || pick == previous_pick) break;
    x.assign(n, 0.0);
    x[pick] = 1.0;
    previous_pick = pick;
  }

  if (!std::isfinite(inv_norm) || inv_norm == 0.0 ||
      original_one_norm_ == 0.0) {
    return 0.0;
  }
  return 1.0 / (original_one_norm_ * inv_norm);
}

std::optional<Vector> solve(const Matrix& a, const Vector& b) {
  const LuDecomposition lu(a);
  if (lu.singular()) return std::nullopt;
  return lu.solve(b);
}

double determinant(const Matrix& a) { return LuDecomposition(a).determinant(); }

std::optional<Matrix> inverse(const Matrix& a) {
  const LuDecomposition lu(a);
  if (lu.singular()) return std::nullopt;
  return lu.inverse();
}

}  // namespace nsrel::linalg
