#include "diffharness/dense_gth.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "combinat/critical_sets.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace nsrel::diffharness {

namespace {

/// Core elimination on the embedded-jump form:
///   m_i = c[i] + sum_j b[i][j] * m_j,   sum_j b[i][j] + ab[i] = 1.
/// Eliminates every state except `initial` (order: last to first, skipping
/// `initial`), then m_initial = c[initial] / ab[initial].
[[nodiscard]] Expected<double> eliminate(std::vector<std::vector<double>> b,
                                         std::vector<double> ab,
                                         std::vector<double> c,
                                         std::size_t initial) {
  const std::size_t n = b.size();
  std::vector<bool> eliminated(n, false);

  for (std::size_t step = n; step-- > 0;) {
    const std::size_t s = step;
    if (s == initial) continue;
    // D_s = 1 - b[s][s], computed as a positive sum via the invariant.
    double d = ab[s];
    for (std::size_t j = 0; j < n; ++j) {
      if (j != s && !eliminated[j]) d += b[s][j];
    }
    if (!(d > 0.0)) {
      return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                   "elimination pivot vanished (state has no remaining "
                   "path to absorption)"};
    }
    const double inv_d = 1.0 / d;
    for (std::size_t i = 0; i < n; ++i) {
      if (eliminated[i] || i == s) continue;
      const double weight = b[i][s] * inv_d;
      if (weight == 0.0) continue;
      c[i] += weight * c[s];
      ab[i] += weight * ab[s];
      for (std::size_t j = 0; j < n; ++j) {
        if (j != s && !eliminated[j]) b[i][j] += weight * b[s][j];
      }
      b[i][s] = 0.0;
    }
    eliminated[s] = true;
  }
  if (!(ab[initial] > 0.0)) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                 "initial state's absorption probability vanished"};
  }
  const double mean = c[initial] / ab[initial];
  if (!std::isfinite(mean) || !(mean > 0.0)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.elimination",
                 "mean absorption time is non-finite or nonpositive"};
  }
  return mean;
}

/// Appendix block recursion for R^(k). `h` spans the 2^k h_alpha values
/// for this subtree, in combinat::h_set order.
linalg::Matrix build_absorption(int k, double n_eff,
                                const models::NoInternalRaidParams& p,
                                std::span<const double> h) {
  NSREL_ASSERT(h.size() == (std::size_t{1} << k));
  const double lambda_n = p.node_failure.value();
  const double d_lambda_d =
      static_cast<double>(p.drives_per_node) * p.drive_failure.value();
  const double mu_n = p.node_rebuild.value();
  const double mu_d = p.drive_rebuild.value();

  if (k == 1) {
    // Same saturation as the model's chain builder.
    const double h_n = saturated_probability(h[0]);
    const double h_d = saturated_probability(h[1]);
    const double exhausted = (n_eff - 1.0) * (lambda_n + d_lambda_d);
    return linalg::Matrix{
        {n_eff * (lambda_n + d_lambda_d), -n_eff * lambda_n * (1.0 - h_n),
         -n_eff * d_lambda_d * (1.0 - h_d)},
        {-mu_n, mu_n + exhausted, 0.0},
        {-mu_d, 0.0, mu_d + exhausted}};
  }

  const std::size_t half = h.size() / 2;
  // R_x^(k) = R^(k-1)(N-1, h_x . h^(k-1)) + mu_x * U  (appendix A.4).
  linalg::Matrix r_n = build_absorption(k - 1, n_eff - 1.0, p, h.first(half));
  r_n(0, 0) += mu_n;
  linalg::Matrix r_d = build_absorption(k - 1, n_eff - 1.0, p, h.last(half));
  r_d(0, 0) += mu_d;

  const std::size_t sub = r_n.rows();
  const std::size_t dim = 2 * sub + 1;
  linalg::Matrix r(dim, dim);
  r(0, 0) = n_eff * (lambda_n + d_lambda_d);  // r^(k): no direct absorption
  r(0, 1) = -n_eff * lambda_n;                // -r_N
  r(0, 1 + sub) = -n_eff * d_lambda_d;        // -r_d
  r(1, 0) = -mu_n;                            // -mu_N vector head
  r(1 + sub, 0) = -mu_d;                      // -mu_d vector head
  for (std::size_t i = 0; i < sub; ++i) {
    for (std::size_t j = 0; j < sub; ++j) {
      r(1 + i, 1 + j) = r_n(i, j);
      r(1 + sub + i, 1 + sub + j) = r_d(i, j);
    }
  }
  return r;
}

}  // namespace

[[nodiscard]] Expected<double> dense_gth(const ctmc::Chain& chain,
                                         ctmc::StateId initial) {
  NSREL_EXPECTS(chain.validate().empty());
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == ctmc::StateKind::kTransient);

  const auto transient = chain.transient_states();
  const std::size_t n = transient.size();
  std::vector<std::size_t> index(chain.state_count(), n);
  for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;

  // Exit rates and split into transient-jump vs absorption flows.
  std::vector<double> exit(n, 0.0);
  std::vector<std::vector<double>> rates(n, std::vector<double>(n, 0.0));
  std::vector<double> absorb(n, 0.0);
  for (const auto& t : chain.transitions()) {
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from < n);
    exit[from] += t.rate;
    const std::size_t to = index[t.to];
    if (to < n) {
      rates[from][to] += t.rate;
    } else {
      absorb[from] += t.rate;
    }
  }

  std::vector<std::vector<double>> b(n, std::vector<double>(n, 0.0));
  std::vector<double> ab(n, 0.0);
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    NSREL_ASSERT(exit[i] > 0.0);
    const double inv_exit = 1.0 / exit[i];
    c[i] = inv_exit;
    ab[i] = absorb[i] * inv_exit;
    for (std::size_t j = 0; j < n; ++j) b[i][j] = rates[i][j] * inv_exit;
  }
  return eliminate(std::move(b), std::move(ab), std::move(c),
                   index[initial]);
}

[[nodiscard]] Expected<double> dense_gth(
    const linalg::Matrix& r, const std::vector<double>& absorption_rates,
    std::size_t initial) {
  NSREL_EXPECTS(r.square());
  const std::size_t n = r.rows();
  NSREL_EXPECTS(absorption_rates.size() == n);
  NSREL_EXPECTS(initial < n);

  std::vector<std::vector<double>> b(n, std::vector<double>(n, 0.0));
  std::vector<double> ab(n, 0.0);
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double exit = r(i, i);
    NSREL_EXPECTS(exit > 0.0);
    NSREL_EXPECTS(absorption_rates[i] >= 0.0);
    const double inv_exit = 1.0 / exit;
    c[i] = inv_exit;
    ab[i] = absorption_rates[i] * inv_exit;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      NSREL_EXPECTS(r(i, j) <= 0.0);
      b[i][j] = -r(i, j) * inv_exit;
    }
  }
  return eliminate(std::move(b), std::move(ab), std::move(c), initial);
}

linalg::Matrix absorption_matrix_recursive(
    const models::NoInternalRaidModel& model) {
  const models::NoInternalRaidParams& p = model.params();
  NSREL_EXPECTS(p.repair_policy == models::RepairPolicy::kSingle);
  const std::vector<double> h = combinat::h_set(model.h_params());
  return build_absorption(p.fault_tolerance,
                          static_cast<double>(p.node_set_size), p, h);
}

linalg::Matrix dense_generator(const ctmc::Chain& chain) {
  linalg::Matrix q(chain.state_count(), chain.state_count());
  for (const auto& t : chain.transitions()) {
    q(t.from, t.to) += t.rate;
    q(t.from, t.from) -= t.rate;
  }
  return q;
}

linalg::Matrix dense_absorption_matrix(const ctmc::Chain& chain) {
  const auto transient = chain.transient_states();
  std::vector<std::size_t> index(chain.state_count(), transient.size());
  for (std::size_t i = 0; i < transient.size(); ++i) index[transient[i]] = i;
  linalg::Matrix r(transient.size(), transient.size());
  for (const auto& t : chain.transitions()) {
    const std::size_t from = index[t.from];
    r(from, from) += t.rate;
    if (index[t.to] < transient.size()) r(from, index[t.to]) -= t.rate;
  }
  return r;
}

std::vector<double> dense_transient_distribution(const ctmc::Chain& chain,
                                                 double t_hours,
                                                 ctmc::StateId initial,
                                                 double tol) {
  NSREL_EXPECTS(t_hours >= 0.0 && tol > 0.0);
  const linalg::Matrix q = dense_generator(chain);
  const std::size_t n = q.rows();
  NSREL_EXPECTS(initial < n);
  double lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i) lambda = std::max(lambda, -q(i, i));
  if (lambda == 0.0) lambda = 1.0;
  // P^T, so that v <- v P is the plain product P^T v: each entry sums
  // its terms over rows of P in ascending order.
  linalg::Matrix pt = linalg::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) pt(j, i) += q(i, j) / lambda;
  }

  std::vector<double> v(n, 0.0);
  v[initial] = 1.0;
  if (t_hours == 0.0) return v;
  const double a = lambda * t_hours;
  NSREL_EXPECTS(std::isfinite(a));
  std::vector<double> result(n, 0.0);
  double log_weight = -a;
  double accumulated = 0.0;
  const auto max_terms =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
  for (std::size_t k = 0; k <= max_terms; ++k) {
    if (k > 0) {
      log_weight += std::log(a / static_cast<double>(k));
      v = pt.multiply(v);
    }
    const double weight = std::exp(log_weight);
    if (weight > 0.0) {
      for (std::size_t i = 0; i < n; ++i) result[i] += weight * v[i];
      accumulated += weight;
      if (1.0 - accumulated < tol) break;
    }
  }
  return result;
}

}  // namespace nsrel::diffharness
