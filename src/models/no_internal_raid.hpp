// Node-level models for nodes WITHOUT internal RAID (paper section 4.3,
// Figures 8, 9, 10, and the appendix's recursive construction for
// arbitrary node fault tolerance k).
//
// Without internal RAID, drive failures and node failures are distinct
// degraded states, so the chain is a binary tree of failure words over
// {N, d}: the state "Nd0" means a node failure followed by a drive failure
// with one more failure tolerated. Each state at depth j < k fails further
// at rate (N-j)(lambda_N + d lambda_d) split by failure type; the last
// tolerated transition pre-samples whether the in-progress critical
// rebuild will encounter a hard error (the h_alpha parameters of section
// 5.2.2); full-depth states absorb at rate (N-k)(lambda_N + d lambda_d);
// repairs undo the most recent failure at mu_N or mu_d.
//
// Two independent constructions are provided: a labeled `ctmc::Chain`
// (transition-level, also consumed by the Monte-Carlo simulator) and the
// appendix's block-recursive absorption matrix R^(k) in CSR form. Tests
// assert they produce identical matrices.
#pragma once

#include <vector>

#include "combinat/critical_sets.hpp"
#include "ctmc/chain.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "models/internal_raid.hpp"  // RepairPolicy
#include "util/units.hpp"

namespace nsrel::models {

struct NoInternalRaidParams {
  int node_set_size = 64;       ///< N
  int redundancy_set_size = 8;  ///< R
  int fault_tolerance = 2;      ///< k across nodes
  int drives_per_node = 12;     ///< d
  PerHour node_failure{0.0};    ///< lambda_N
  PerHour drive_failure{0.0};   ///< lambda_d
  PerHour node_rebuild{0.0};    ///< mu_N
  PerHour drive_rebuild{0.0};   ///< mu_d (distributed drive rebuild)
  Bytes capacity = gigabytes(300.0);  ///< C per drive
  double her_per_byte = 8e-14;        ///< HER, errors per byte read
  /// kSingle repairs only the most recent failure (the paper's chains);
  /// kConcurrent repairs every outstanding failure at its own rate (the
  /// recursive matrix path and the closed forms assume kSingle).
  RepairPolicy repair_policy = RepairPolicy::kSingle;
};

class NoInternalRaidModel {
 public:
  /// Preconditions: k >= 1, k < R <= N, N > k, d >= 1, rates > 0,
  /// fault_tolerance <= 16. The absorption matrix has 2^(k+1)-1 states
  /// (131071 at the k=16 cap). Both chain() and the recursive matrix are
  /// assembled in time linear in the transitions, and the sparse
  /// elimination solves either in O(n), so every k up to the cap is
  /// practical on both routes.
  explicit NoInternalRaidModel(const NoInternalRaidParams& params);

  [[nodiscard]] const NoInternalRaidParams& params() const { return params_; }

  /// h-parameter family for this configuration (section 5.2.2).
  [[nodiscard]] combinat::HParams h_params() const;

  /// The exact chain. State 0 is the absorbing data-loss state "A"; the
  /// fully-operational root follows at state 1 (see root_state()).
  [[nodiscard]] ctmc::Chain chain() const;

  /// Id of the fully-operational root state within chain().
  [[nodiscard]] static ctmc::StateId root_state() { return 1; }

  /// The appendix's absorption matrix R^(k) in CSR form, built by the
  /// block recursion (dimension 2^(k+1)-1), ordered root, N-subtree,
  /// d-subtree. O(n) storage — the form that takes the recursion to the
  /// k=16 cap. tests/diffharness keeps the dense block recursion and
  /// asserts entry-for-entry equality with it.
  [[nodiscard]] linalg::sparse::CsrMatrix absorption_matrix_recursive_sparse()
      const;

  /// Exact per-state absorption rates in the same state order (nonzero
  /// only at the bottom two levels of the recursion) — supplied to the
  /// elimination solver so no row-sum subtraction is ever needed.
  [[nodiscard]] std::vector<double> absorption_rates_recursive() const;

  /// MTTDL by numerically solving the exact chain.
  [[nodiscard]] Hours mttdl_exact() const;

  /// MTTDL = <1,0,...,0> R^{-1} <1,...,1>^t on the block-recursive matrix
  /// (appendix equation A.2) — an independent numerical path.
  [[nodiscard]] Hours mttdl_recursive_matrix() const;

  /// The paper's closed-form approximation. For k = 1, 2, 3 this equals
  /// the printed formulas (section 4.3 and Figure 12); for larger k it is
  /// the appendix theorem's general form with the L_k recursion.
  [[nodiscard]] Hours mttdl_closed_form() const;

 private:
  NoInternalRaidParams params_;
};

/// The appendix's L_k recursion: L(x,y) = x*lambda_N + y*d*lambda_d,
/// L_1(H) = L(H[0], H[1]),
/// L_k(H) = L(mu_d * L_{k-1}(first half), mu_N * L_{k-1}(second half)).
/// `h_values` must have size 2^k, ordered as combinat::h_set.
[[nodiscard]] double l_recursion(int k, const std::vector<double>& h_values,
                                 double lambda_n, double d_lambda_d,
                                 double mu_n, double mu_d);

}  // namespace nsrel::models
