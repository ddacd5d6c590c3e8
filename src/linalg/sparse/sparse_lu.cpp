#include "linalg/sparse/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::linalg::sparse {

namespace {

// Threshold for relative pivot magnitude within the chosen column: a
// candidate must be at least this fraction of the column's largest
// entry. 0.1 is the textbook compromise between stability (1.0 =
// partial pivoting) and sparsity (0 = pure Markowitz); the generators
// here are diagonally dominant after negation, so the threshold rarely
// binds.
constexpr double kPivotThreshold = 0.1;

}  // namespace

SparseLu::SparseLu(const CsrMatrix& a) {
  NSREL_EXPECTS(a.square());
  n_ = a.rows();
  original_one_norm_ = a.one_norm();
  row_of_step_.resize(n_);
  col_of_step_.resize(n_);
  pivot_value_.resize(n_);
  l_entries_.resize(n_);
  u_entries_.resize(n_);

  // Active submatrix in mutable form: ordered containers only, so every
  // traversal below is deterministic.
  std::vector<std::map<std::uint32_t, double>> row(n_);
  std::vector<std::set<std::uint32_t>> col_rows(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const std::uint32_t c = a.col_index()[i];
      row[r].emplace(c, a.values()[i]);
      col_rows[c].insert(static_cast<std::uint32_t>(r));
    }
  }
  // Active columns keyed by (entry count, column index): the minimum is
  // the emptiest column, ties toward the lowest index.
  std::set<std::pair<std::uint32_t, std::uint32_t>> active_cols;
  for (std::size_t c = 0; c < n_; ++c) {
    active_cols.emplace(static_cast<std::uint32_t>(col_rows[c].size()),
                        static_cast<std::uint32_t>(c));
  }

  for (std::size_t step = 0; step < n_; ++step) {
    // Markowitz-style pivot: take the emptiest active column, then the
    // emptiest row among its acceptably-large entries.
    const std::uint32_t pc = active_cols.begin()->second;
    double max_mag = 0.0;
    for (const std::uint32_t r : col_rows[pc]) {
      max_mag = std::max(max_mag, std::abs(row[r].find(pc)->second));
    }
    if (max_mag == 0.0) {
      // The emptiest column of the active submatrix is (structurally or
      // numerically) zero, so the submatrix is singular.
      singular_ = true;
      return;
    }
    std::uint32_t pr = 0;
    std::size_t pr_nnz = 0;
    bool picked = false;
    for (const std::uint32_t r : col_rows[pc]) {
      const double mag = std::abs(row[r].find(pc)->second);
      if (mag < kPivotThreshold * max_mag) continue;
      if (!picked || row[r].size() < pr_nnz) {
        pr = r;
        pr_nnz = row[r].size();
        picked = true;
      }
    }
    NSREL_ASSERT(picked);

    const double pivot = row[pr].find(pc)->second;
    row_of_step_[step] = pr;
    col_of_step_[step] = static_cast<std::uint32_t>(pc);
    pivot_value_[step] = pivot;

    // Retire the pivot row from the column structures.
    for (const auto& [c, value] : row[pr]) {
      active_cols.erase({static_cast<std::uint32_t>(col_rows[c].size()),
                         static_cast<std::uint32_t>(c)});
      col_rows[c].erase(pr);
      if (c != pc) {
        active_cols.emplace(static_cast<std::uint32_t>(col_rows[c].size()),
                            static_cast<std::uint32_t>(c));
        u_entries_[step].push_back({c, value});
      }
    }

    // Eliminate the pivot column from every remaining row.
    for (const std::uint32_t r : col_rows[pc]) {
      const auto pivot_entry = row[r].find(pc);
      const double factor = pivot_entry->second / pivot;
      row[r].erase(pivot_entry);
      if (factor == 0.0) continue;  // stored zero: structural only
      l_entries_[step].push_back({r, factor});
      for (const Entry& u : u_entries_[step]) {
        const auto [it, inserted] = row[r].emplace(u.index, 0.0);
        it->second -= factor * u.value;
        if (inserted) {
          active_cols.erase(
              {static_cast<std::uint32_t>(col_rows[u.index].size()),
               u.index});
          col_rows[u.index].insert(r);
          active_cols.emplace(
              static_cast<std::uint32_t>(col_rows[u.index].size()), u.index);
        }
      }
    }
    col_rows[pc].clear();
    row[pr].clear();
  }

  step_of_row_.resize(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    step_of_row_[row_of_step_[s]] = static_cast<std::uint32_t>(s);
  }
}

Vector SparseLu::solve(const Vector& b) const {
  NSREL_EXPECTS(!singular_);
  NSREL_EXPECTS(b.size() == n_);
  // Forward substitution replays the elimination on the right-hand
  // side: y[s] is the pivot row's value once all earlier steps have
  // been applied to it.
  Vector work = b;
  Vector y(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    y[s] = work[row_of_step_[s]];
    for (const Entry& l : l_entries_[s]) work[l.index] -= l.value * y[s];
  }
  // Back substitution through U, scattering into original columns.
  Vector x(n_, 0.0);
  for (std::size_t sp1 = n_; sp1 > 0; --sp1) {
    const std::size_t s = sp1 - 1;
    double sum = y[s];
    for (const Entry& u : u_entries_[s]) sum -= u.value * x[u.index];
    x[col_of_step_[s]] = sum / pivot_value_[s];
  }
  return x;
}

Vector SparseLu::solve_transposed(const Vector& b) const {
  NSREL_EXPECTS(!singular_);
  NSREL_EXPECTS(b.size() == n_);
  // A^T x = b with P A Q = L U: forward through U^T (gathering from
  // original columns), then backward through L^T, then scatter through
  // the row permutation.
  Vector work = b;
  Vector w(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    w[s] = work[col_of_step_[s]] / pivot_value_[s];
    for (const Entry& u : u_entries_[s]) work[u.index] -= u.value * w[s];
  }
  Vector z(n_);
  for (std::size_t sp1 = n_; sp1 > 0; --sp1) {
    const std::size_t s = sp1 - 1;
    double sum = w[s];
    // L's entries at step s live in rows pivoted at later steps, whose
    // z values are already final when iterating steps downward.
    for (const Entry& l : l_entries_[s]) {
      sum -= l.value * z[step_of_row_[l.index]];
    }
    z[s] = sum;
  }
  Vector x(n_);
  for (std::size_t s = 0; s < n_; ++s) x[row_of_step_[s]] = z[s];
  return x;
}

double SparseLu::rcond_estimate() const {
  if (singular_) return 0.0;
  const std::size_t n = n_;

  // Hager's 1-norm estimator: start from the uniform vector, step to
  // the unit vector of the largest |A^{-T} sign(A^{-1} x)| entry, and
  // stop when that no longer beats z^T x or after five rounds.
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
    double z_dot_x = 0.0;
    for (std::size_t i = 0; i < n; ++i) z_dot_x += z[i] * x[i];
    if (std::abs(z[pick]) <= z_dot_x || pick == previous_pick) break;
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

}  // namespace nsrel::linalg::sparse
