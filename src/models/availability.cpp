#include "models/availability.hpp"

#include <vector>

#include "ctmc/absorbing.hpp"
#include "ctmc/stationary.hpp"
#include "util/assert.hpp"

namespace nsrel::models {

ctmc::Chain AvailabilityModel::make_repairable(
    const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
    PerHour restore_rate) {
  NSREL_EXPECTS(absorbing_chain.validate().empty());
  NSREL_EXPECTS(healthy < absorbing_chain.state_count());
  NSREL_EXPECTS(absorbing_chain.state(healthy).kind ==
                ctmc::StateKind::kTransient);
  NSREL_EXPECTS(restore_rate.value() > 0.0);

  // Rebuild the chain with every state transient; former absorbing states
  // get a restore transition back to the healthy state.
  ctmc::Chain repairable;
  for (ctmc::StateId s = 0; s < absorbing_chain.state_count(); ++s) {
    repairable.add_state(absorbing_chain.state(s).label,
                         ctmc::StateKind::kTransient);
  }
  for (const auto& t : absorbing_chain.transitions()) {
    repairable.add_transition(t.from, t.to, t.rate);
  }
  for (const ctmc::StateId lost : absorbing_chain.absorbing_states()) {
    repairable.add_transition(lost, healthy, restore_rate.value());
  }
  return repairable;
}

AvailabilityResult AvailabilityModel::analyze(
    const ctmc::Chain& absorbing_chain, ctmc::StateId healthy,
    Hours restore_time) {
  NSREL_EXPECTS(restore_time.value() > 0.0);
  const ctmc::Chain repairable =
      make_repairable(absorbing_chain, healthy, rate_of(restore_time));
  const std::vector<double> pi =
      ctmc::StationarySolver::distribution(repairable);

  AvailabilityResult result;
  double lost_fraction = 0.0;
  for (const ctmc::StateId s : absorbing_chain.absorbing_states()) {
    lost_fraction += pi[s];
  }
  result.availability = 1.0 - lost_fraction;
  result.downtime_minutes_per_year =
      lost_fraction * kHoursPerYear * 60.0;
  // Summed over the degraded states, not taken as 1 - lost - healthy:
  // that difference cancels to a rounding residue, possibly negative,
  // when nearly all time is spent lost.
  for (const ctmc::StateId s : absorbing_chain.transient_states()) {
    if (s != healthy) result.degraded_fraction += pi[s];
  }
  result.mttdl = Hours(
      ctmc::AbsorbingSolver::mttdl_hours(absorbing_chain, healthy));
  return result;
}

}  // namespace nsrel::models
