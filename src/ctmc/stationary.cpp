#include "ctmc/stationary.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/sparse/sparse_lu.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace nsrel::ctmc {

namespace {

/// Q^T with the last row replaced by the normalization equation, in CSR
/// form straight from the transition list.
linalg::sparse::CsrMatrix normalized_transpose(const Chain& chain) {
  const std::size_t n = chain.state_count();
  std::vector<linalg::sparse::Triplet> triplets;
  triplets.reserve(2 * chain.transitions().size() + n);
  for (const auto& t : chain.transitions()) {
    // Q's (from, to) += rate and (from, from) -= rate, transposed —
    // except entries landing in the normalization row.
    if (t.to != n - 1) {
      triplets.push_back({static_cast<std::uint32_t>(t.to),
                          static_cast<std::uint32_t>(t.from), t.rate});
    }
    if (t.from != n - 1) {
      triplets.push_back({static_cast<std::uint32_t>(t.from),
                          static_cast<std::uint32_t>(t.from), -t.rate});
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    triplets.push_back({static_cast<std::uint32_t>(n - 1),
                        static_cast<std::uint32_t>(j), 1.0});
  }
  return linalg::sparse::CsrMatrix::from_triplets(n, n, triplets);
}

}  // namespace

std::vector<double> StationarySolver::distribution(const Chain& chain) {
  return try_distribution(chain).value_or_throw();
}

[[nodiscard]] Expected<std::vector<double>> StationarySolver::try_distribution(
    const Chain& chain) {
  NSREL_EXPECTS(chain.absorbing_count() == 0);
  const std::size_t n = chain.state_count();
  NSREL_EXPECTS(n > 0);

  // pi Q = 0 with sum(pi) = 1: transpose to Q^T pi^T = 0 and replace the
  // last equation by the normalization row.
  obs::Span span(obs::probe::kSpanStationarySolve,
                 obs::probe::kSpanCategoryCtmc);
  if (span.armed()) {
    span.arg("states", static_cast<std::uint64_t>(n));
  }
  const linalg::sparse::SparseLu lu(normalized_transpose(chain));
  if (lu.singular()) {  // singular iff chain is reducible
    return Error{ErrorCode::kSingularGenerator, "ctmc.stationary",
                 "generator is singular (chain is reducible)"};
  }
  linalg::Vector b(n, 0.0);
  b[n - 1] = 1.0;
  const linalg::Vector solution = lu.solve(b);
  for (const double p : solution) {
    if (!std::isfinite(p) || p < -1e-12) {
      return Error{ErrorCode::kNonFiniteResult, "ctmc.stationary",
                   "stationary distribution has a non-finite or negative "
                   "probability"};
    }
  }
  return solution;
}

double StationarySolver::occupancy(const Chain& chain,
                                   const std::vector<StateId>& states) {
  const std::vector<double> pi = distribution(chain);
  double total = 0.0;
  for (const StateId s : states) {
    NSREL_EXPECTS(s < pi.size());
    total += pi[s];
  }
  return total;
}

}  // namespace nsrel::ctmc
