#include "models/internal_raid.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "combinat/critical_sets.hpp"
#include "ctmc/absorbing.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace nsrel::models {

InternalRaidNodeModel::InternalRaidNodeModel(const InternalRaidParams& params)
    : params_(params) {
  NSREL_EXPECTS(params_.fault_tolerance >= 1);
  NSREL_EXPECTS(params_.node_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size <= params_.node_set_size);
  NSREL_EXPECTS(params_.node_failure.value() > 0.0);
  NSREL_EXPECTS(params_.node_rebuild.value() > 0.0);
  NSREL_EXPECTS(params_.array_failure.value() >= 0.0);
  NSREL_EXPECTS(params_.sector_error.value() >= 0.0);
  NSREL_EXPECTS(params_.array_failure.value() + params_.node_failure.value() >
                0.0);
}

double InternalRaidNodeModel::critical_factor() const {
  if (params_.fault_tolerance == 1) return 1.0;
  return combinat::critical_fraction(params_.node_set_size,
                                     params_.redundancy_set_size,
                                     params_.fault_tolerance);
}

ctmc::Chain InternalRaidNodeModel::chain() const {
  const int n = params_.node_set_size;
  const int t = params_.fault_tolerance;
  const double lam = params_.node_failure.value() + params_.array_failure.value();
  const double mu = params_.node_rebuild.value();
  const double sector = critical_factor() * params_.sector_error.value();
  // Rates that overflow leave no finite generator to solve: a typed
  // error, as the solvers report a singular one, not a trip of
  // add_transition's finite-rate precondition. No failure rate exceeds
  // N(lambda + k_t lambda_S) and no repair rate t mu.
  if (!std::isfinite(static_cast<double>(n) * (lam + sector)) ||
      !std::isfinite(static_cast<double>(t) * mu)) {
    throw ErrorException(Error{ErrorCode::kSingularGenerator,
                               "models.internal_raid",
                               "a transition rate overflows to infinity"});
  }

  obs::Span span(obs::probe::kSpanChainBuild, obs::probe::kSpanCategoryModels);
  ctmc::Chain c;
  // Ids are dense in insertion order: state i is "i nodes lost".
  const auto degraded = [](int i) { return static_cast<ctmc::StateId>(i); };
  for (int i = 0; i <= t; ++i) c.add_state(std::to_string(i) + "_nodes_lost");
  const ctmc::StateId loss =
      c.add_state("data_loss", ctmc::StateKind::kAbsorbing);

  for (int i = 0; i < t; ++i) {
    c.add_transition(degraded(i), degraded(i + 1),
                     static_cast<double>(n - i) * lam);
  }
  // Beyond tolerance: node/array failure, or a hard error striking one of
  // the critical redundancy sets during the in-progress rebuild.
  c.add_transition(degraded(t), loss,
                   static_cast<double>(n - t) * (lam + sector));
  for (int i = 1; i <= t; ++i) {
    const double repair_rate =
        params_.repair_policy == RepairPolicy::kConcurrent
            ? static_cast<double>(i) * mu
            : mu;
    c.add_transition(degraded(i), degraded(i - 1), repair_rate);
  }
  NSREL_ENSURES(c.validate().empty());
  span.arg("states", static_cast<std::uint64_t>(c.state_count()));
  span.arg("transitions",
           static_cast<std::uint64_t>(c.transitions().size()));
  return c;
}

Hours InternalRaidNodeModel::mttdl_exact() const {
  return Hours(ctmc::AbsorbingSolver::mttdl_hours(chain(), 0));
}

Hours InternalRaidNodeModel::mttdl_closed_form() const {
  const int n = params_.node_set_size;
  const int t = params_.fault_tolerance;
  const double lam =
      params_.node_failure.value() + params_.array_failure.value();
  const double mu = params_.node_rebuild.value();
  const double sector = critical_factor() * params_.sector_error.value();
  const double denominator =
      falling_factorial(n, t + 1) * std::pow(lam, t) * (lam + sector);
  NSREL_ASSERT(denominator > 0.0);
  return Hours(std::pow(mu, t) / denominator);
}

Hours internal_raid_ft1_full(const InternalRaidParams& params) {
  NSREL_EXPECTS(params.fault_tolerance == 1);
  const double n = params.node_set_size;
  const double lam = params.node_failure.value() + params.array_failure.value();
  const double mu = params.node_rebuild.value();
  const double sector = params.sector_error.value();
  const double numerator = mu + (2.0 * n - 1.0) * lam + (n - 1.0) * sector;
  const double denominator = n * (n - 1.0) * lam * (lam + sector);
  return Hours(numerator / denominator);
}

}  // namespace nsrel::models
