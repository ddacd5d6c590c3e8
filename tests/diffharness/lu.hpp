// Dense LU decomposition with partial pivoting, plus solve, determinant
// and inverse: the reference factorization the test suite checks the
// library's sparse Markowitz LU (linalg/sparse/sparse_lu) against.
//
// The generator submatrices Q_B arising from the paper's models are
// strictly diagonally dominant after negation in the regimes of interest
// (repair rates dwarf failure rates), so partial pivoting is ample.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "diffharness/matrix.hpp"

namespace nsrel::linalg {

/// Factorization A = P * L * U held in packed form.
class LuDecomposition {
 public:
  /// Factors `a`. Check `singular()` before using solve/inverse.
  explicit LuDecomposition(Matrix a);

  [[nodiscard]] bool singular() const { return singular_; }

  /// det(A). Zero when singular.
  [[nodiscard]] double determinant() const;

  /// Solves A x = b. Requires !singular() and b.size() == n.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves A X = B column-by-column. Requires !singular().
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Solves x^T A = b^T, i.e. A^T x = b. Requires !singular().
  [[nodiscard]] Vector solve_transposed(const Vector& b) const;

  /// A^{-1}. Requires !singular().
  [[nodiscard]] Matrix inverse() const;

  /// Reciprocal 1-norm condition estimate 1 / (||A||_1 * est ||A^{-1}||_1),
  /// with ||A^{-1}||_1 estimated by Hager's method (a handful of O(n^2)
  /// triangular solves on the existing factorization — no O(n^3) inverse).
  /// The estimate of ||A^{-1}||_1 is a lower bound, so the returned rcond
  /// is an upper bound on the true value: when it is already below a
  /// threshold, the true conditioning is at least that bad. Exact for
  /// diagonal matrices; in practice within a small factor of exact.
  [[nodiscard]] double rcond_estimate() const;

 private:
  Matrix lu_;                     // L below diag (unit), U on/above diag
  std::vector<std::size_t> piv_;  // row permutation
  int pivot_sign_ = 1;
  bool singular_ = false;
  double original_one_norm_ = 0.0;
};

/// Convenience: solve A x = b in one call; nullopt when A is singular.
[[nodiscard]] std::optional<Vector> solve(const Matrix& a, const Vector& b);

/// Convenience: det(A).
[[nodiscard]] double determinant(const Matrix& a);

/// Convenience: A^{-1}; nullopt when singular.
[[nodiscard]] std::optional<Matrix> inverse(const Matrix& a);

}  // namespace nsrel::linalg
