// Node-level models for nodes WITH internal RAID (paper section 4.2,
// Figures 5, 6, 7 — generalized to arbitrary node fault tolerance).
//
// The hierarchy: a RAID array model (raid::GeneralArrayModel) collapses the
// drives of one node into two rates, lambda_D (array failure) and lambda_S
// (hard error during a critical re-stripe). The node-level chain then
// counts failed nodes 0..t; each failure occurs at rate
// (N-i)(lambda_N + lambda_D), repairs run at mu_N, and the transition from
// the last tolerated state into data loss carries the extra
// k_t * lambda_S term for hard errors striking the critical fraction of
// redundancy sets (section 5.2.1: k_1 = 1, k_2 = (R-1)/(N-1),
// k_3 = (R-1)(R-2)/((N-1)(N-2))).
#pragma once

#include "ctmc/chain.hpp"
#include "util/units.hpp"

namespace nsrel::models {

/// How rebuilds of multiple concurrent failures proceed. The paper's
/// figures repair one failure at a time (mu_N between consecutive
/// states); a system whose N-1 survivors have bandwidth to rebuild
/// several lost nodes simultaneously repairs each outstanding failure at
/// its own rate (i * mu_N from state i).
enum class RepairPolicy : unsigned char { kSingle, kConcurrent };

struct InternalRaidParams {
  int node_set_size = 64;       ///< N
  int redundancy_set_size = 8;  ///< R
  int fault_tolerance = 2;      ///< t, erasure code strength across nodes
  PerHour node_failure{0.0};    ///< lambda_N
  PerHour node_rebuild{0.0};    ///< mu_N
  PerHour array_failure{0.0};   ///< lambda_D from the internal array model
  PerHour sector_error{0.0};    ///< lambda_S from the internal array model
  RepairPolicy repair_policy = RepairPolicy::kSingle;  ///< paper: single
};

class InternalRaidNodeModel {
 public:
  /// Preconditions: N > t >= 1, t < R <= N, all rates > 0 except
  /// sector_error which may be 0.
  explicit InternalRaidNodeModel(const InternalRaidParams& params);

  [[nodiscard]] const InternalRaidParams& params() const { return params_; }

  /// Critical-set factor k_t applied to lambda_S (1 for t = 1).
  [[nodiscard]] double critical_factor() const;

  /// Exact chain: Figure 5 (t=1), Figure 6 (t=2), Figure 7 (t=3), and the
  /// natural generalization beyond.
  [[nodiscard]] ctmc::Chain chain() const;

  /// MTTDL by numerically solving the exact chain.
  [[nodiscard]] Hours mttdl_exact() const;

  /// The paper's closed-form approximation:
  ///   mu_N^t / ( N(N-1)...(N-t) (lambda_N+lambda_D)^t
  ///              (lambda_N+lambda_D + k_t lambda_S) ).
  [[nodiscard]] Hours mttdl_closed_form() const;

 private:
  InternalRaidParams params_;
};

/// The paper's pre-approximation FT1 closed form (section 4.2):
///   (mu_N + (2N-1)(lambda_N+lambda_D) + (N-1) lambda_S)
///   / (N(N-1)(lambda_N+lambda_D)(lambda_N+lambda_D+lambda_S)).
[[nodiscard]] Hours internal_raid_ft1_full(const InternalRaidParams& params);

}  // namespace nsrel::models
