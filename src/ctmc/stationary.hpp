// Stationary distribution of an irreducible CTMC (no absorbing states):
// solve pi * Q = 0 with sum(pi) = 1.
//
// The reliability models in this library are absorbing, but their
// "repairable" variants (data loss followed by restore from backup) are
// irreducible; the availability example and several tests use this solver.
#pragma once

#include <vector>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

class StationarySolver {
 public:
  /// Stationary distribution over all states.
  /// Preconditions: no absorbing states, non-empty chain. A reducible
  /// chain (singular solve) or a non-finite/negative distribution throws
  /// ErrorException; use try_distribution for the typed error.
  [[nodiscard]] static std::vector<double> distribution(const Chain& chain);

  /// Non-throwing form: singular generator (reducible chain) and
  /// non-finite or negative probabilities come back as typed errors.
  /// The factorization is Markowitz sparse LU at every size
  /// (linalg/sparse/sparse_lu.hpp).
  [[nodiscard]] static Expected<std::vector<double>> try_distribution(
      const Chain& chain);

  /// Long-run fraction of time spent in the given set of states.
  [[nodiscard]] static double occupancy(const Chain& chain,
                                        const std::vector<StateId>& states);
};

}  // namespace nsrel::ctmc
