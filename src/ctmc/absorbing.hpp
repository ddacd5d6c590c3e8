// Absorbing-chain analysis: mean time to absorption (the paper's MTTDL),
// per-state occupancy times, absorption probabilities and the standard
// deviation of the absorption time.
//
// Method (paper appendix, after Trivedi): with B the transient states,
// occupancy times tau solve tau_B * Q_B = -pi_B(0); then
// MTTDL = sum_i tau_i = <pi0> * R^{-1} * <1,...,1>^t with R = -Q_B.
#pragma once

#include <vector>

#include "ctmc/chain.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

struct AbsorbingAnalysis {
  /// Expected total time spent in each transient state before absorption,
  /// indexed like Chain::transient_states(). Hours.
  std::vector<double> occupancy_hours;

  /// Mean time to absorption = sum of occupancy times. Hours.
  double mean_time_to_absorption_hours = 0.0;

  /// Standard deviation of the absorption time (phase-type second moment).
  double stddev_time_to_absorption_hours = 0.0;

  /// Probability of eventually absorbing into each absorbing state,
  /// indexed like Chain::absorbing_states(). Sums to 1.
  std::vector<double> absorption_probability;
};

class AbsorbingSolver {
 public:
  /// Analyzes the chain starting from transient state `initial`
  /// (a full-state id; defaults to state 0).
  /// Preconditions: chain.validate() passes; `initial` is transient.
  /// Numerical failures (singular or ill-conditioned absorption matrix,
  /// non-finite results) throw ErrorException; use try_analyze to get
  /// the typed error without an exception.
  [[nodiscard]] static AbsorbingAnalysis analyze(const Chain& chain,
                                                 StateId initial = 0);

  /// Same, with an arbitrary initial distribution over transient states
  /// (indexed like Chain::transient_states(); must sum to ~1).
  [[nodiscard]] static AbsorbingAnalysis analyze_distribution(
      const Chain& chain, const std::vector<double>& initial);

  /// Non-throwing forms: numerical-health failures come back as typed
  /// errors (singular_generator, ill_conditioned below guards.min_rcond,
  /// non_finite_result). Caller-bug preconditions (bad initial state,
  /// size mismatch, invalid chain) still throw ContractViolation.
  /// The factorization is Markowitz sparse LU on the CSR absorption
  /// matrix at every size (linalg/sparse/sparse_lu.hpp).
  [[nodiscard]] static Expected<AbsorbingAnalysis> try_analyze(
      const Chain& chain, StateId initial = 0,
      const NumericalGuards& guards = {});
  [[nodiscard]] static Expected<AbsorbingAnalysis> try_analyze_distribution(
      const Chain& chain, const std::vector<double>& initial,
      const NumericalGuards& guards = {});

  /// Convenience: just the MTTDL in hours from transient state `initial`.
  [[nodiscard]] static double mttdl_hours(const Chain& chain,
                                          StateId initial = 0);
};

}  // namespace nsrel::ctmc
