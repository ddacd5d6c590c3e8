// Sparse LU factorization with Markowitz pivoting — the one
// factorization behind the absorbing, stationary and sensitivity solves.
//
// Pivoting for numerical stability alone (partial pivoting) fills the
// factors of a sparse matrix in, and the O(n^3) cost returns through the
// back door. Markowitz's rule picks, at each step, an acceptably-large
// pivot whose row and column are as empty as possible — the classic
// fill-minimizing heuristic for asymmetric sparse Gaussian elimination.
// On the CTMC generators the models produce (a handful of nonzeros per
// row) the factors stay near-linear in size and solves run in O(nnz).
//
// Pivot choice is fully deterministic (ordered containers only, ties
// broken toward the lowest index), so factorizations are reproducible
// across runs and thread counts. The test suite's dense partial-pivot
// LU pivots differently, so the two agree to the bound documented in
// DESIGN.md §11, not bit for bit (the GTH elimination path is the
// bit-identical one; see ctmc/elimination).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/sparse/sparse_matrix.hpp"

namespace nsrel::linalg::sparse {

/// Factorization P A Q = L U in pivot-step coordinates. Check
/// `singular()` before calling the solves.
class SparseLu {
 public:
  explicit SparseLu(const CsrMatrix& a);

  [[nodiscard]] bool singular() const { return singular_; }

  [[nodiscard]] std::size_t dimension() const { return n_; }

  /// Solves A x = b. Requires !singular() and b.size() == dimension().
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves A^T x = b. Requires !singular() and b.size() == dimension().
  [[nodiscard]] Vector solve_transposed(const Vector& b) const;

  /// Reciprocal 1-norm condition estimate 1 / (||A||_1 * est ||A^{-1}||_1),
  /// with ||A^{-1}||_1 estimated by Hager's method (a handful of solves
  /// on the existing factors). The estimate of ||A^{-1}||_1 is a lower
  /// bound, so the returned rcond is an upper bound on the true value:
  /// when it is already below a threshold, the true conditioning is at
  /// least that bad.
  [[nodiscard]] double rcond_estimate() const;

 private:
  struct Entry {
    std::uint32_t index = 0;  // original row (L) or original column (U)
    double value = 0.0;
  };

  std::size_t n_ = 0;
  bool singular_ = false;
  double original_one_norm_ = 0.0;
  std::vector<std::uint32_t> row_of_step_;
  std::vector<std::uint32_t> col_of_step_;
  std::vector<std::uint32_t> step_of_row_;
  std::vector<double> pivot_value_;
  // l_entries_[s]: rows eliminated at step s as (original row, factor).
  // u_entries_[s]: the pivot row's surviving entries at step s as
  // (original column, value), pivot column excluded.
  std::vector<std::vector<Entry>> l_entries_;
  std::vector<std::vector<Entry>> u_entries_;
};

}  // namespace nsrel::linalg::sparse
