// Transient analysis via uniformization (Jensen's method).
//
// Computes the state distribution pi(t) = pi(0) * exp(Q t) without forming
// a matrix exponential: with Lambda >= max_i |Q_ii| and P = I + Q/Lambda,
// pi(t) = sum_k Poisson(k; Lambda*t) * pi(0) * P^k, truncated when the
// remaining Poisson tail is below a tolerance. Numerically robust because
// every term is a probability vector.
//
// Used for survival curves R(t) = P(no data loss by time t) — a view the
// closed-form MTTDL cannot give — and to cross-check MTTDL by integrating
// the survival function in tests.
#pragma once

#include <vector>

#include "ctmc/chain.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

class TransientSolver {
 public:
  /// Builds the uniformized representation of `chain`.
  /// Precondition: chain has at least one state. Zero-rate chains (every
  /// state absorbing, or a single state with no transitions) are valid:
  /// the uniformized kernel degenerates to the identity and the
  /// distribution stays at pi(0) for all t.
  explicit TransientSolver(const Chain& chain);

  /// Distribution over ALL states at time t (hours), starting from the
  /// given full-state id (must be transient unless t == 0).
  [[nodiscard]] std::vector<double> distribution_at(double t_hours,
                                                    StateId initial = 0,
                                                    double tol = 1e-12) const;

  /// Non-throwing form: a uniformization horizon too large for the
  /// Poisson expansion (non-finite Lambda*t) comes back as
  /// kInvalidParameter, and a distribution that lost probability mass
  /// beyond the tolerance (a conditioning failure in the power
  /// iteration) as kNonFiniteResult. Caller-bug preconditions (bad
  /// state id, negative t or tol) still throw ContractViolation.
  [[nodiscard]] Expected<std::vector<double>> try_distribution_at(
      double t_hours, StateId initial = 0, double tol = 1e-12) const;

  /// Survival probability: P(not absorbed by t) from `initial`.
  [[nodiscard]] double survival(double t_hours, StateId initial = 0,
                                double tol = 1e-12) const;

  /// Non-throwing form of survival(), same error taxonomy as
  /// try_distribution_at.
  [[nodiscard]] Expected<double> try_survival(double t_hours,
                                              StateId initial = 0,
                                              double tol = 1e-12) const;

  /// Survival curve at the given time points (hours, non-decreasing not
  /// required; each point evaluated independently).
  [[nodiscard]] std::vector<double> survival_curve(
      const std::vector<double>& times_hours, StateId initial = 0,
      double tol = 1e-12) const;

  /// Uniformization rate Lambda actually used.
  [[nodiscard]] double uniformization_rate() const { return lambda_; }

 private:
  const Chain& chain_;
  linalg::sparse::CsrMatrix p_;  // uniformized DTMC kernel
  double lambda_ = 0.0;
};

}  // namespace nsrel::ctmc
