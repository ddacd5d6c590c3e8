#include "ctmc/absorbing.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "ctmc/elimination.hpp"
#include "linalg/sparse/sparse_lu.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/math.hpp"

namespace nsrel::ctmc {

AbsorbingAnalysis AbsorbingSolver::analyze(const Chain& chain,
                                           StateId initial) {
  return try_analyze(chain, initial).value_or_throw();
}

AbsorbingAnalysis AbsorbingSolver::analyze_distribution(
    const Chain& chain, const std::vector<double>& initial) {
  return try_analyze_distribution(chain, initial).value_or_throw();
}

[[nodiscard]] Expected<AbsorbingAnalysis> AbsorbingSolver::try_analyze(
    const Chain& chain, StateId initial, const NumericalGuards& guards) {
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == StateKind::kTransient);
  const auto transient = chain.transient_states();
  std::vector<double> pi0(transient.size(), 0.0);
  for (std::size_t i = 0; i < transient.size(); ++i) {
    if (transient[i] == initial) pi0[i] = 1.0;
  }
  return try_analyze_distribution(chain, pi0, guards);
}

[[nodiscard]] Expected<AbsorbingAnalysis> AbsorbingSolver::try_analyze_distribution(
    const Chain& chain, const std::vector<double>& initial,
    const NumericalGuards& guards) {
  const std::string defect = chain.validate();
  NSREL_EXPECTS(defect.empty());
  const auto transient = chain.transient_states();
  NSREL_EXPECTS(initial.size() == transient.size());
  NSREL_EXPECTS(approx_equal(
      std::accumulate(initial.begin(), initial.end(), 0.0), 1.0, 1e-9));

  obs::Span span(obs::probe::kSpanAbsorbingSolve,
                 obs::probe::kSpanCategoryCtmc);
  if (span.armed()) {
    span.arg("states", static_cast<std::uint64_t>(transient.size()));
  }
  const linalg::sparse::SparseLu lu(chain.absorption_matrix());
  if (lu.singular()) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.absorbing",
                 "absorption matrix is numerically singular"};
  }
  const double rcond = lu.rcond_estimate();
  if (rcond < guards.min_rcond) {
    return Error{ErrorCode::kIllConditioned, "ctmc.absorbing",
                 "absorption matrix rcond " + sci(rcond) +
                     " below threshold " + sci(guards.min_rcond)};
  }

  AbsorbingAnalysis result;
  // tau^T R = pi0^T  <=>  R^T tau = pi0.
  result.occupancy_hours = lu.solve_transposed(initial);

  KahanSum total;
  for (const double tau : result.occupancy_hours) total.add(tau);
  result.mean_time_to_absorption_hours = total.value();

  // m = R^{-1} 1: expected time to absorption from each transient state.
  // E[T^2] = 2 * sum_i tau_i * m_i (phase-type second moment).
  const linalg::Vector ones(result.occupancy_hours.size(), 1.0);
  const linalg::Vector m = lu.solve(ones);
  KahanSum second_moment;
  for (std::size_t i = 0; i < m.size(); ++i) {
    second_moment.add(2.0 * result.occupancy_hours[i] * m[i]);
  }
  const double variance =
      second_moment.value() - result.mean_time_to_absorption_hours *
                                  result.mean_time_to_absorption_hours;
  result.stddev_time_to_absorption_hours =
      variance > 0.0 ? std::sqrt(variance) : 0.0;

  // P(absorb into a) = sum_i tau_i * rate(i -> a).
  for (const StateId a : chain.absorbing_states()) {
    const std::vector<double> rates = chain.rates_into(a);
    KahanSum p;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      p.add(result.occupancy_hours[i] * rates[i]);
    }
    result.absorption_probability.push_back(p.value());
  }

  // Health check on everything the solve produced: a conditioning
  // problem that slipped past the rcond estimate shows up here as NaN,
  // infinity, or a negative mean time.
  bool finite = std::isfinite(result.mean_time_to_absorption_hours) &&
                result.mean_time_to_absorption_hours > 0.0 &&
                std::isfinite(result.stddev_time_to_absorption_hours);
  for (const double tau : result.occupancy_hours) {
    finite = finite && std::isfinite(tau);
  }
  for (const double p : result.absorption_probability) {
    finite = finite && std::isfinite(p);
  }
  if (!finite) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.absorbing",
                 "absorption analysis produced a non-finite or nonpositive "
                 "result"};
  }
  return result;
}

double AbsorbingSolver::mttdl_hours(const Chain& chain, StateId initial) {
  // The GTH-style elimination path: identical to the LU route at normal
  // conditioning, and still exact when MTTDL/rate ratios exceed double
  // precision (where LU produces garbage, including negative times).
  return EliminationSolver::mean_absorption_time_hours(chain, initial);
}

}  // namespace nsrel::ctmc
