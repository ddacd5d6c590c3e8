// Cancellation-free mean-absorption-time solver (GTH-style state
// elimination).
//
// Why: the LU route computes MTTDL ~ 1e19 hours from matrix entries of
// order 1, which requires resolving cancellations beyond double precision
// once the chain is reliable enough (observed as a NEGATIVE MTTDL at fault
// tolerance 6). Grassmann-Taksar-Heyman elimination avoids subtraction
// entirely: writing the mean-absorption-time system as
//     m_i = c_i + sum_j b_ij m_j,   with  sum_j b_ij + ab_i = 1,
// (b_ij = jump probabilities, ab_i = absorption probability, c_i = mean
// hold time), eliminating a state divides by D_s = 1 - b_ss, and the
// row-sum invariant lets D_s be computed as the POSITIVE SUM
// sum_{j != s} b_sj + ab_s. Every update is add/multiply of non-negative
// numbers, so the result is accurate to machine epsilon at ANY condition
// number.
//
// Storage: only the nonzero jump probabilities are kept (rows of
// (column, value) pairs sorted by column, plus a sorted column index).
// States are eliminated last to first, skipping `initial`. The dense
// n x n formulation of the same elimination lives in tests/diffharness
// as the reference oracle; the per-cell arithmetic here differs from it
// only by skipping additions of exact 0.0, which are no-ops on the
// non-negative quantities GTH maintains, so the two agree to the bit on
// every chain (asserted across hundreds of random chains). On the
// appendix recursion's binary-tree chains, last-to-first order is
// leaf-first, so the elimination has zero fill-in and runs in O(n).
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/chain.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

class EliminationSolver {
 public:
  /// Mean time to absorption (hours) from `initial`, built directly from
  /// the chain's transition rates (no subtractions anywhere).
  /// Preconditions: chain.validate() passes; initial is transient.
  /// Numerical failures (degenerate elimination pivot, non-finite
  /// result) throw ErrorException; use the try_ form for typed errors.
  [[nodiscard]] static double mean_absorption_time_hours(const Chain& chain,
                                                         StateId initial);

  /// Non-throwing form of the chain overload: a vanishing elimination
  /// pivot (no remaining path to absorption — a numerically singular
  /// generator) or a non-finite mean comes back as a typed error.
  [[nodiscard]] static Expected<double> try_mean_absorption_time_hours(
      const Chain& chain, StateId initial);

  /// Fully cancellation-free solve from an absorption matrix R = -Q_B
  /// (appendix form) in CSR: R's off-diagonals give jump rates,
  /// diagonals give exit rates, and the caller supplies the exact
  /// absorption rate of each state (no row-sum subtraction anywhere).
  /// Never materializes an n x n array — the path that takes the
  /// appendix recursion to fault tolerance 16.
  /// Preconditions: r square, absorption_rates.size() == r.rows().
  [[nodiscard]] static double mean_absorption_time_hours(
      const linalg::sparse::CsrMatrix& r,
      const std::vector<double>& absorption_rates, std::size_t initial);

  /// Non-throwing form of the CSR overload.
  [[nodiscard]] static Expected<double> try_mean_absorption_time_hours(
      const linalg::sparse::CsrMatrix& r,
      const std::vector<double>& absorption_rates, std::size_t initial);
};

}  // namespace nsrel::ctmc
