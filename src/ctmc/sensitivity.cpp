#include "ctmc/sensitivity.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/sparse/sparse_lu.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace nsrel::ctmc {

namespace {

struct MttaSensitivity {
  double derivative = 0.0;  ///< dMTTA/dtheta at theta = 1
  double mtta = 0.0;        ///< m[init], from the same factorization
};

/// The derivative and the MTTA it is taken of, from one factorization
/// of R: m = R^{-1} 1 gives both the MTTA and the derivative's right
/// factor.
[[nodiscard]] Expected<MttaSensitivity> try_mtta_sensitivity(
    const Chain& chain, StateId initial,
    const SensitivitySolver::TransitionSelector& selector,
    const NumericalGuards& guards) {
  NSREL_EXPECTS(chain.validate().empty());
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == StateKind::kTransient);
  NSREL_EXPECTS(selector != nullptr);

  const auto transient = chain.transient_states();
  const std::size_t n = transient.size();
  std::vector<std::size_t> index(chain.state_count(), n);
  for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;

  const linalg::sparse::SparseLu lu(chain.absorption_matrix());
  if (lu.singular()) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.sensitivity",
                 "absorption matrix is numerically singular"};
  }
  const double rcond = lu.rcond_estimate();
  if (rcond < guards.min_rcond) {
    return Error{ErrorCode::kIllConditioned, "ctmc.sensitivity",
                 "absorption matrix rcond " + sci(rcond) +
                     " below threshold " + sci(guards.min_rcond)};
  }

  // m = R^{-1} 1 (mean absorption times), y = R^{-T} e_init.
  const linalg::Vector m = lu.solve(linalg::Vector(n, 1.0));
  linalg::Vector e_init(n, 0.0);
  e_init[index[initial]] = 1.0;
  const linalg::Vector y = lu.solve_transposed(e_init);

  // dMTTA/dtheta = -y^T D m with D = dR/dtheta assembled on the fly.
  double derivative = 0.0;
  for (const auto& t : chain.transitions()) {
    if (!selector(t)) continue;
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from < n);
    // Diagonal of R grows with the rate regardless of destination.
    double contribution = y[from] * t.rate * m[from];
    const std::size_t to = index[t.to];
    if (to < n) contribution -= y[from] * t.rate * m[to];
    derivative -= contribution;
  }
  if (!std::isfinite(derivative)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.sensitivity",
                 "MTTA derivative is non-finite"};
  }
  return MttaSensitivity{derivative, m[index[initial]]};
}

}  // namespace

double SensitivitySolver::mtta_derivative(const Chain& chain, StateId initial,
                                          const TransitionSelector& selector) {
  return try_mtta_derivative(chain, initial, selector).value_or_throw();
}

[[nodiscard]] Expected<double> SensitivitySolver::try_mtta_derivative(
    const Chain& chain, StateId initial, const TransitionSelector& selector,
    const NumericalGuards& guards) {
  const auto sensitivity =
      try_mtta_sensitivity(chain, initial, selector, guards);
  if (!sensitivity.has_value()) return sensitivity.error();
  return sensitivity.value().derivative;
}

double SensitivitySolver::mtta_elasticity(const Chain& chain, StateId initial,
                                          const TransitionSelector& selector) {
  return try_mtta_elasticity(chain, initial, selector).value_or_throw();
}

[[nodiscard]] Expected<double> SensitivitySolver::try_mtta_elasticity(
    const Chain& chain, StateId initial, const TransitionSelector& selector,
    const NumericalGuards& guards) {
  const auto sensitivity =
      try_mtta_sensitivity(chain, initial, selector, guards);
  if (!sensitivity.has_value()) return sensitivity.error();
  const double mtta = sensitivity.value().mtta;
  if (!std::isfinite(mtta) || mtta == 0.0) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.sensitivity",
                 "MTTA is non-finite or zero, elasticity undefined"};
  }
  const double elasticity = sensitivity.value().derivative / mtta;
  if (!std::isfinite(elasticity)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.sensitivity",
                 "MTTA elasticity is non-finite"};
  }
  return elasticity;
}

}  // namespace nsrel::ctmc
