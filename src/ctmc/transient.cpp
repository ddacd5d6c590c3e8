#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {

TransientSolver::TransientSolver(const Chain& chain) : chain_(chain) {
  NSREL_EXPECTS(chain.state_count() > 0);
  const linalg::sparse::CsrMatrix q = chain.generator();
  const std::size_t n = q.rows();
  for (std::size_t i = 0; i < n; ++i) {
    lambda_ = std::max(lambda_, -q.at(i, i));
  }
  if (lambda_ == 0.0) lambda_ = 1.0;  // all-absorbing chain: P = I
  // P = I + Q / Lambda: each row's identity triplet comes first, so the
  // diagonal accumulates as 1.0 + q_ii / Lambda.
  std::vector<linalg::sparse::Triplet> triplets;
  triplets.reserve(q.nnz() + n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    triplets.push_back({row, row, 1.0});
    for (std::size_t k = q.row_ptr()[i]; k < q.row_ptr()[i + 1]; ++k) {
      triplets.push_back({row, q.col_index()[k], q.values()[k] / lambda_});
    }
  }
  p_ = linalg::sparse::CsrMatrix::from_triplets(n, n, triplets);
}

std::vector<double> TransientSolver::distribution_at(double t_hours,
                                                     StateId initial,
                                                     double tol) const {
  return try_distribution_at(t_hours, initial, tol).value_or_throw();
}

[[nodiscard]] Expected<std::vector<double>> TransientSolver::try_distribution_at(
    double t_hours, StateId initial, double tol) const {
  NSREL_EXPECTS(t_hours >= 0.0);
  NSREL_EXPECTS(initial < chain_.state_count());
  NSREL_EXPECTS(tol > 0.0);
  const std::size_t n = chain_.state_count();
  std::vector<double> v(n, 0.0);
  v[initial] = 1.0;
  if (t_hours == 0.0) return v;

  const double a = lambda_ * t_hours;
  if (!std::isfinite(a)) {
    return Error{ErrorCode::kInvalidParameter, "ctmc.transient",
                 "uniformization horizon Lambda*t is non-finite"};
  }
  // Poisson(k; a) computed iteratively in linear space with underflow
  // protection: start from the log of the k=0 term.
  std::vector<double> result(n, 0.0);
  double log_weight = -a;  // log Poisson(0; a)
  double accumulated = 0.0;
  // Iterate until the accumulated Poisson mass covers 1 - tol. Bound the
  // loop generously: a + 12*sqrt(a) + 64 terms covers any practical tail.
  const std::size_t max_terms =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
  for (std::size_t k = 0; k <= max_terms; ++k) {
    if (k > 0) {
      log_weight += std::log(a / static_cast<double>(k));
      // v <- v * P (row vector times matrix), rows in ascending order.
      v = p_.multiply_transposed(v);
    }
    const double weight = std::exp(log_weight);
    if (weight > 0.0) {
      for (std::size_t i = 0; i < n; ++i) result[i] += weight * v[i];
      accumulated += weight;
      if (1.0 - accumulated < tol) break;
    }
  }
  for (const double p : result) {
    if (!std::isfinite(p)) {
      return Error{ErrorCode::kNonFiniteResult, "ctmc.transient",
                   "transient distribution has a non-finite probability"};
    }
  }
  return result;
}

[[nodiscard]] Expected<double> TransientSolver::try_survival(double t_hours, StateId initial,
                                               double tol) const {
  const auto dist = try_distribution_at(t_hours, initial, tol);
  if (!dist.has_value()) return dist.error();
  double transient_mass = 0.0;
  for (const StateId s : chain_.transient_states()) {
    transient_mass += dist.value()[s];
  }
  return transient_mass;
}

double TransientSolver::survival(double t_hours, StateId initial,
                                 double tol) const {
  return try_survival(t_hours, initial, tol).value_or_throw();
}

std::vector<double> TransientSolver::survival_curve(
    const std::vector<double>& times_hours, StateId initial,
    double tol) const {
  std::vector<double> curve;
  curve.reserve(times_hours.size());
  for (const double t : times_hours) curve.push_back(survival(t, initial, tol));
  return curve;
}

}  // namespace nsrel::ctmc
