#include "models/no_internal_raid.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ctmc/absorbing.hpp"
#include "ctmc/elimination.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace nsrel::models {

namespace {

using combinat::FailureKind;
using combinat::FailureWord;

std::string word_label(const FailureWord& word, int fault_tolerance) {
  std::string label;
  for (const FailureKind kind : word) {
    label += (kind == FailureKind::kNode) ? 'N' : 'd';
  }
  label.append(
      static_cast<std::size_t>(fault_tolerance) - word.size(), '0');
  return label.empty() ? "0" : label;
}

/// Id of the state of `word` with the failure at position `skip` removed
/// (none by default). States are numbered in preorder: "A" is 0, the
/// root 1, and a depth-i state's N child follows it directly while its d
/// child follows the N child's whole subtree of 2^(k-i) - 1 states.
ctmc::StateId word_id(const FailureWord& word, int fault_tolerance,
                      std::size_t skip = ~std::size_t{0}) {
  ctmc::StateId id = 1;
  int depth = 0;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (i == skip) continue;
    id += word[i] == FailureKind::kNode
              ? 1
              : ctmc::StateId{1} << (fault_tolerance - depth);
    ++depth;
  }
  return id;
}

/// Recursive chain builder. Adds the subtree rooted at `prefix` (root
/// first, then the N-subtree, then the d-subtree — the appendix's block
/// order) and returns the subtree root id. Failure and absorbing edges
/// are added during the walk; repair edges are added afterwards by
/// `add_repairs`, a second walk in the same order, because the
/// concurrent policy connects states across subtrees (removing a MIDDLE
/// failure from the word).
class ChainBuilder {
 public:
  ChainBuilder(ctmc::Chain& chain, ctmc::StateId loss,
               const NoInternalRaidParams& p, const combinat::HParams& hp)
      : chain_(chain), loss_(loss), params_(p), h_params_(hp) {}

  void add_repairs(FailureWord& word) {
    const int k = params_.fault_tolerance;
    const double mu_n = params_.node_rebuild.value();
    const double mu_d = params_.drive_rebuild.value();
    if (!word.empty()) {
      // Single repair undoes the last failure only; concurrent repair
      // undoes any one of them.
      const std::size_t first =
          params_.repair_policy == RepairPolicy::kSingle ? word.size() - 1
                                                         : 0;
      const ctmc::StateId id = word_id(word, k);
      for (std::size_t i = first; i < word.size(); ++i) {
        chain_.add_transition(
            id, word_id(word, k, i),
            word[i] == FailureKind::kNode ? mu_n : mu_d);
      }
    }
    if (static_cast<int>(word.size()) == k) return;
    word.push_back(FailureKind::kNode);
    add_repairs(word);
    word.back() = FailureKind::kDrive;
    add_repairs(word);
    word.pop_back();
  }

  ctmc::StateId build(FailureWord& prefix) {
    const int depth = static_cast<int>(prefix.size());
    const int k = params_.fault_tolerance;
    const double n_eff =
        static_cast<double>(params_.node_set_size - depth);
    const double lambda_n = params_.node_failure.value();
    const double d_lambda_d = static_cast<double>(params_.drives_per_node) *
                              params_.drive_failure.value();

    const ctmc::StateId root = chain_.add_state(word_label(prefix, k));
    NSREL_ASSERT(root == word_id(prefix, k));

    if (depth == k) {
      // Fully degraded: any further failure in the node set loses data.
      chain_.add_transition(root, loss_, n_eff * (lambda_n + d_lambda_d));
      return root;
    }

    double rate_n = n_eff * lambda_n;
    double rate_d = n_eff * d_lambda_d;
    if (depth == k - 1) {
      // The next failure makes some redundancy sets critical: pre-sample
      // whether the ensuing rebuild will hit a hard error (h_alpha terms).
      // Saturate the paper's linear hard-error probabilities (h_N can
      // exceed 1 at fault tolerance 1 with baseline parameters).
      prefix.push_back(FailureKind::kNode);
      const double h_n =
          saturated_probability(combinat::h_for_word(h_params_, prefix));
      prefix.back() = FailureKind::kDrive;
      const double h_d =
          saturated_probability(combinat::h_for_word(h_params_, prefix));
      prefix.pop_back();
      const double loss_rate = n_eff * (lambda_n * h_n + d_lambda_d * h_d);
      if (loss_rate > 0.0) chain_.add_transition(root, loss_, loss_rate);
      rate_n *= 1.0 - h_n;
      rate_d *= 1.0 - h_d;
    }

    prefix.push_back(FailureKind::kNode);
    const ctmc::StateId child_n = build(prefix);
    prefix.pop_back();
    chain_.add_transition(root, child_n, rate_n);

    prefix.push_back(FailureKind::kDrive);
    const ctmc::StateId child_d = build(prefix);
    prefix.pop_back();
    chain_.add_transition(root, child_d, rate_d);
    return root;
  }

 private:
  ctmc::Chain& chain_;
  ctmc::StateId loss_;
  const NoInternalRaidParams& params_;
  const combinat::HParams& h_params_;
};

/// Appendix block recursion for R^(k), emitted as triplets at offset
/// `base` into `out`. `h` spans the 2^k h_alpha values for this subtree,
/// in combinat::h_set order. The parent's mu contribution to a sub-block
/// root's diagonal is pushed AFTER the sub-block's own entries, so
/// CsrMatrix::from_triplets (which accumulates duplicates in triplet
/// order) reproduces a dense build's `value += mu` bit-for-bit.
/// Returns the block's dimension.
std::size_t append_absorption_triplets(
    int k, double n_eff, const NoInternalRaidParams& p,
    std::span<const double> h, std::uint32_t base,
    std::vector<linalg::sparse::Triplet>& out) {
  NSREL_ASSERT(h.size() == (std::size_t{1} << k));
  const double lambda_n = p.node_failure.value();
  const double d_lambda_d =
      static_cast<double>(p.drives_per_node) * p.drive_failure.value();
  const double mu_n = p.node_rebuild.value();
  const double mu_d = p.drive_rebuild.value();

  if (k == 1) {
    // Same saturation as ChainBuilder so the two constructions agree.
    const double h_n = saturated_probability(h[0]);
    const double h_d = saturated_probability(h[1]);
    const double exhausted = (n_eff - 1.0) * (lambda_n + d_lambda_d);
    out.push_back({base, base, n_eff * (lambda_n + d_lambda_d)});
    out.push_back({base, base + 1, -n_eff * lambda_n * (1.0 - h_n)});
    out.push_back({base, base + 2, -n_eff * d_lambda_d * (1.0 - h_d)});
    out.push_back({base + 1, base, -mu_n});
    out.push_back({base + 1, base + 1, mu_n + exhausted});
    out.push_back({base + 2, base, -mu_d});
    out.push_back({base + 2, base + 2, mu_d + exhausted});
    return 3;
  }

  const std::size_t half = h.size() / 2;
  const std::uint32_t sub =
      static_cast<std::uint32_t>((std::size_t{1} << k) - 1);
  out.push_back({base, base, n_eff * (lambda_n + d_lambda_d)});
  out.push_back({base, base + 1, -n_eff * lambda_n});
  out.push_back({base, base + 1 + sub, -n_eff * d_lambda_d});
  out.push_back({base + 1, base, -mu_n});
  out.push_back({base + 1 + sub, base, -mu_d});
  // R_x^(k) = R^(k-1)(N-1, h_x . h^(k-1)) + mu_x * U  (appendix A.4).
  const std::size_t sub_n = append_absorption_triplets(
      k - 1, n_eff - 1.0, p, h.first(half), base + 1, out);
  out.push_back({base + 1, base + 1, mu_n});
  const std::size_t sub_d = append_absorption_triplets(
      k - 1, n_eff - 1.0, p, h.last(half), base + 1 + sub, out);
  out.push_back({base + 1 + sub, base + 1 + sub, mu_d});
  NSREL_ASSERT(sub_n == sub && sub_d == sub);
  return 2 * std::size_t{sub} + 1;
}

/// Absorption rates per state, in the same recursive state order as
/// append_absorption_triplets. Only the bottom two levels absorb: depth k-1 states
/// via the pre-sampled hard-error flow, depth k states via any further
/// failure.
void append_absorption_rates(int k, double n_eff,
                             const NoInternalRaidParams& p,
                             std::span<const double> h,
                             std::vector<double>& out) {
  const double lambda_n = p.node_failure.value();
  const double d_lambda_d =
      static_cast<double>(p.drives_per_node) * p.drive_failure.value();
  if (k == 1) {
    const double h_n = saturated_probability(h[0]);
    const double h_d = saturated_probability(h[1]);
    out.push_back(n_eff * (lambda_n * h_n + d_lambda_d * h_d));
    out.push_back((n_eff - 1.0) * (lambda_n + d_lambda_d));
    out.push_back((n_eff - 1.0) * (lambda_n + d_lambda_d));
    return;
  }
  out.push_back(0.0);  // the root of a k>1 block never absorbs directly
  const std::size_t half = h.size() / 2;
  append_absorption_rates(k - 1, n_eff - 1.0, p, h.first(half), out);
  append_absorption_rates(k - 1, n_eff - 1.0, p, h.last(half), out);
}

}  // namespace

NoInternalRaidModel::NoInternalRaidModel(const NoInternalRaidParams& params)
    : params_(params) {
  NSREL_EXPECTS(params_.fault_tolerance >= 1);
  NSREL_EXPECTS(params_.fault_tolerance <= 16);
  NSREL_EXPECTS(params_.node_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size <= params_.node_set_size);
  NSREL_EXPECTS(params_.drives_per_node >= 1);
  NSREL_EXPECTS(params_.node_failure.value() > 0.0);
  NSREL_EXPECTS(params_.drive_failure.value() > 0.0);
  NSREL_EXPECTS(params_.node_rebuild.value() > 0.0);
  NSREL_EXPECTS(params_.drive_rebuild.value() > 0.0);
  NSREL_EXPECTS(params_.capacity.value() > 0.0);
  NSREL_EXPECTS(params_.her_per_byte >= 0.0);
}

combinat::HParams NoInternalRaidModel::h_params() const {
  combinat::HParams hp;
  hp.node_set_size = params_.node_set_size;
  hp.redundancy_set_size = params_.redundancy_set_size;
  hp.drives_per_node = params_.drives_per_node;
  hp.fault_tolerance = params_.fault_tolerance;
  hp.capacity_bytes = params_.capacity.value();
  hp.her_per_byte = params_.her_per_byte;
  return hp;
}

ctmc::Chain NoInternalRaidModel::chain() const {
  // Rates that overflow leave no finite generator to solve: a typed
  // error, as the solvers report a singular one, not a trip of
  // add_transition's finite-rate precondition. No failure rate exceeds
  // N(lambda_N + d lambda_d) and no (merged) repair rate k max(mu).
  const double k = params_.fault_tolerance;
  if (!std::isfinite(static_cast<double>(params_.node_set_size) *
                     (params_.node_failure.value() +
                      static_cast<double>(params_.drives_per_node) *
                          params_.drive_failure.value())) ||
      !std::isfinite(k * params_.node_rebuild.value()) ||
      !std::isfinite(k * params_.drive_rebuild.value())) {
    throw ErrorException(Error{ErrorCode::kSingularGenerator,
                               "models.no_internal_raid",
                               "a transition rate overflows to infinity"});
  }
  obs::Span span(obs::probe::kSpanChainBuild, obs::probe::kSpanCategoryModels);
  ctmc::Chain c;
  const ctmc::StateId loss = c.add_state("A", ctmc::StateKind::kAbsorbing);
  const combinat::HParams hp = h_params();
  ChainBuilder builder(c, loss, params_, hp);
  FailureWord prefix;
  const ctmc::StateId root = builder.build(prefix);
  builder.add_repairs(prefix);
  NSREL_ENSURES(root == root_state());
  NSREL_ENSURES(c.state_count() ==
                (std::size_t{2} << params_.fault_tolerance));
  NSREL_ENSURES(c.validate().empty());
  span.arg("states", static_cast<std::uint64_t>(c.state_count()));
  span.arg("transitions",
           static_cast<std::uint64_t>(c.transitions().size()));
  return c;
}

Hours NoInternalRaidModel::mttdl_exact() const {
  return Hours(ctmc::AbsorbingSolver::mttdl_hours(chain(), root_state()));
}

linalg::sparse::CsrMatrix
NoInternalRaidModel::absorption_matrix_recursive_sparse() const {
  NSREL_EXPECTS(params_.repair_policy == RepairPolicy::kSingle);
  const std::vector<double> h = combinat::h_set(h_params());
  const std::size_t dim = (std::size_t{2} << params_.fault_tolerance) - 1;
  std::vector<linalg::sparse::Triplet> triplets;
  // Each state row holds at most 3 structural entries plus the parent's
  // mu contribution.
  triplets.reserve(4 * dim);
  const std::size_t built = append_absorption_triplets(
      params_.fault_tolerance, static_cast<double>(params_.node_set_size),
      params_, h, 0, triplets);
  NSREL_ENSURES(built == dim);
  return linalg::sparse::CsrMatrix::from_triplets(dim, dim, triplets);
}

Hours NoInternalRaidModel::mttdl_recursive_matrix() const {
  // The appendix's block structure encodes single (LIFO) repair.
  NSREL_EXPECTS(params_.repair_policy == RepairPolicy::kSingle);
  // MTTDL = <1,0,...,0> R^{-1} <1,...,1>^t (appendix A.2), evaluated via
  // cancellation-free elimination: the naive LU evaluation loses all
  // precision (and can go negative) once MTTDL/mu exceeds ~1/epsilon,
  // which happens at fault tolerance ~6 with baseline rates.
  return Hours(ctmc::EliminationSolver::mean_absorption_time_hours(
      absorption_matrix_recursive_sparse(), absorption_rates_recursive(), 0));
}

std::vector<double> NoInternalRaidModel::absorption_rates_recursive() const {
  const std::vector<double> h = combinat::h_set(h_params());
  std::vector<double> rates;
  rates.reserve((std::size_t{2} << params_.fault_tolerance) - 1);
  append_absorption_rates(params_.fault_tolerance,
                          static_cast<double>(params_.node_set_size), params_,
                          h, rates);
  NSREL_ENSURES(rates.size() ==
                (std::size_t{2} << params_.fault_tolerance) - 1);
  return rates;
}

double l_recursion(int k, const std::vector<double>& h_values, double lambda_n,
                   double d_lambda_d, double mu_n, double mu_d) {
  NSREL_EXPECTS(k >= 1);
  NSREL_EXPECTS(h_values.size() == (std::size_t{1} << k));
  if (k == 1) return h_values[0] * lambda_n + h_values[1] * d_lambda_d;
  const std::size_t half = h_values.size() / 2;
  const std::vector<double> first(h_values.begin(),
                                  h_values.begin() + static_cast<long>(half));
  const std::vector<double> second(h_values.begin() + static_cast<long>(half),
                                   h_values.end());
  const double l_first =
      l_recursion(k - 1, first, lambda_n, d_lambda_d, mu_n, mu_d);
  const double l_second =
      l_recursion(k - 1, second, lambda_n, d_lambda_d, mu_n, mu_d);
  return mu_d * l_first * lambda_n + mu_n * l_second * d_lambda_d;
}

Hours NoInternalRaidModel::mttdl_closed_form() const {
  // Appendix Figure A1:
  //   MTTDL ~= (mu_N mu_d)^k /
  //     ( N(N-1)...(N-k+1) [ (N-k)(lambda_N + d lambda_d) L(mu_d, mu_N)^k
  //                          + (mu_N mu_d) L_k(h^(k)) ] )
  const int k = params_.fault_tolerance;
  const double n = params_.node_set_size;
  const double lambda_n = params_.node_failure.value();
  const double d_lambda_d = static_cast<double>(params_.drives_per_node) *
                            params_.drive_failure.value();
  const double mu_n = params_.node_rebuild.value();
  const double mu_d = params_.drive_rebuild.value();

  const std::vector<double> h = combinat::h_set(h_params());
  const double l_k = l_recursion(k, h, lambda_n, d_lambda_d, mu_n, mu_d);
  const double l_mu = mu_d * lambda_n + mu_n * d_lambda_d;  // L(mu_d, mu_N)
  const double bracket =
      (n - k) * (lambda_n + d_lambda_d) * std::pow(l_mu, k) + mu_n * mu_d * l_k;
  const double denominator =
      falling_factorial(params_.node_set_size, k) * bracket;
  NSREL_ASSERT(denominator > 0.0);
  return Hours(std::pow(mu_n * mu_d, k) / denominator);
}

}  // namespace nsrel::models
