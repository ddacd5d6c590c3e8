// Seeded random-chain generators for the differential-testing harness
// (tests/test_diffharness.cpp): every family the CTMC solvers accept,
// plus deterministic degenerate systems whose solves MUST fail with the
// same typed error in the library and in the dense oracle.
//
// Everything here is a pure function of its Xoshiro256 stream (or fully
// deterministic), so a failing seed reproduces exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/chain.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "models/no_internal_raid.hpp"
#include "util/rng.hpp"

namespace nsrel::diffharness {

/// Log-uniform rate in [1e-3, 1e3) per hour: wide enough to stress the
/// solvers across six decades, narrow enough that random chains stay
/// well-conditioned (the agreement bound in DESIGN.md §11 assumes this).
[[nodiscard]] double random_rate(Xoshiro256& rng);

/// Absorbing birth-death chain (the internal-RAID shape): `transient`
/// degraded states 0..transient-1, one absorbing loss state. Every state
/// fails forward (so absorption is always reachable); repairs backward
/// appear with probability 0.8 per state.
[[nodiscard]] ctmc::Chain birth_death(Xoshiro256& rng, std::size_t transient);

/// Arbitrary absorbing chain with guaranteed absorption reachability: a
/// forward backbone 0 -> 1 -> ... -> first absorbing state, plus random
/// extra transient-to-transient and transient-to-absorbing edges, each
/// present with probability `extra_density`.
[[nodiscard]] ctmc::Chain random_absorbing(Xoshiro256& rng,
                                           std::size_t transient,
                                           std::size_t absorbing,
                                           double extra_density);

/// Irreducible chain (no absorbing states) for the stationary solver: a
/// directed cycle over all n states plus random extra edges with
/// probability `extra_density` per ordered pair.
[[nodiscard]] ctmc::Chain random_irreducible(Xoshiro256& rng, std::size_t n,
                                             double extra_density);

/// Random parameters for the appendix's recursive construction at the
/// given fault tolerance (the binary-tree chain shape): random set sizes
/// satisfying k < R <= N and log-uniform failure/rebuild rates.
[[nodiscard]] models::NoInternalRaidParams random_recursive_params(
    Xoshiro256& rng, int fault_tolerance);

/// A degenerate absorbing system R in CSR form: the
/// last `trapped` states (>= 2) form a directed cycle with positive exit
/// rates but NO path to absorption, so GTH elimination reaches an
/// exactly-zero pivot in BOTH the library and the oracle. With healthy == 0 the trap
/// includes the initial state and the failure surfaces as a vanished
/// initial absorption probability instead. All rates are small integers,
/// so every elimination step is exact and the zero is bit-exact.
struct DegenerateSystem {
  linalg::sparse::CsrMatrix sparse;
  std::vector<double> absorption_rates;
};
[[nodiscard]] DegenerateSystem trapped_system(std::size_t healthy,
                                              std::size_t trapped);

/// Reducible "irreducible-looking" chain for the stationary solver: two
/// disconnected 2-cycles with rate-1 transitions. The normalized
/// transpose is exactly rank-deficient (integer arithmetic), so the LU
/// oracle must report it singular and the library a typed error.
[[nodiscard]] ctmc::Chain disconnected_cycles();

}  // namespace nsrel::diffharness
