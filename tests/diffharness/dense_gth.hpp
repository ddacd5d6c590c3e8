// Dense reference oracle for the library's GTH elimination
// (src/ctmc/elimination.cpp): the same elimination order (last state to
// first, skipping `initial`) and the same per-cell arithmetic, on a full
// n x n array of jump probabilities. The library keeps only the nonzero
// entries and so skips this oracle's additions of exact 0.0; on the
// non-negative quantities GTH maintains those are no-ops, so the two must
// agree to the bit (tests/test_diffharness.cpp).
//
// Also home to the dense references for the library's other CSR code:
// Q and R assembled from a chain, the appendix's block recursion for
// R^(k), and uniformization on an n x n kernel P = I + Q/Lambda.
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/chain.hpp"
#include "diffharness/matrix.hpp"
#include "models/no_internal_raid.hpp"
#include "util/error.hpp"

namespace nsrel::diffharness {

/// Dense GTH mean absorption time from `initial`, built from the chain's
/// transition rates. Preconditions as EliminationSolver's chain overload.
[[nodiscard]] Expected<double> dense_gth(const ctmc::Chain& chain,
                                         ctmc::StateId initial);

/// Dense GTH from an absorption matrix R = -Q_B with the exact absorption
/// rate of each state supplied. Preconditions as EliminationSolver's CSR
/// overload.
[[nodiscard]] Expected<double> dense_gth(
    const linalg::Matrix& r, const std::vector<double>& absorption_rates,
    std::size_t initial);

/// The appendix's absorption matrix R^(k) built by the dense block
/// recursion (dimension 2^(k+1)-1), ordered root, N-subtree, d-subtree.
/// Precondition: single (LIFO) repair.
[[nodiscard]] linalg::Matrix absorption_matrix_recursive(
    const models::NoInternalRaidModel& model);

/// Q from the chain's transitions, accumulated in transition order.
[[nodiscard]] linalg::Matrix dense_generator(const ctmc::Chain& chain);

/// R = -Q_B from the chain's transitions, indexed like
/// Chain::transient_states(), accumulated in transition order.
[[nodiscard]] linalg::Matrix dense_absorption_matrix(const ctmc::Chain& chain);

/// pi(t) over all states from `initial`, by the same Poisson recurrence
/// and stopping rule as TransientSolver::distribution_at on a dense
/// kernel. Preconditions: t_hours >= 0 with Lambda * t finite, tol > 0.
[[nodiscard]] std::vector<double> dense_transient_distribution(
    const ctmc::Chain& chain, double t_hours, ctmc::StateId initial,
    double tol = 1e-12);

}  // namespace nsrel::diffharness
