#include "core/scrubbing.hpp"

#include "rebuild/drive_model.hpp"
#include "util/assert.hpp"

namespace nsrel::core {

ScrubbingModel::ScrubbingModel(const ScrubbingParams& params)
    : params_(params) {
  NSREL_EXPECTS(params_.period.value() > 0.0);
  NSREL_EXPECTS(params_.reference_latency.value() > 0.0);
  NSREL_EXPECTS(params_.command.value() > 0.0);
}

double ScrubbingModel::latent_rate(double datasheet_her_per_byte) const {
  NSREL_EXPECTS(datasheet_her_per_byte >= 0.0);
  // HER = rho * T0 / 2  =>  rho = 2 * HER / T0.
  return 2.0 * datasheet_her_per_byte / params_.reference_latency.value();
}

ScrubbingEffect ScrubbingModel::effect(const core::SystemConfig& system) const {
  NSREL_EXPECTS(!check(system));
  ScrubbingEffect result;
  const double rho = latent_rate(system.drive.her_per_byte);
  result.effective_her_per_byte = rho * params_.period.value() / 2.0;

  // One full-drive read per period at the scrub command size.
  const rebuild::DriveModel drive(system.drive);
  const Seconds pass_time = transfer_time(
      system.drive.capacity, drive.effective_rate(params_.command));
  result.scrub_bandwidth_fraction =
      to_hours(pass_time).value() / params_.period.value();
  result.rebuild_bandwidth_fraction =
      system.rebuild_bandwidth_fraction - result.scrub_bandwidth_fraction;
  NSREL_ENSURES(result.rebuild_bandwidth_fraction > 0.0);
  return result;
}

core::SystemConfig ScrubbingModel::apply(
    const core::SystemConfig& system) const {
  const ScrubbingEffect e = effect(system);
  core::SystemConfig scrubbed = system;
  scrubbed.drive.her_per_byte = e.effective_her_per_byte;
  scrubbed.rebuild_bandwidth_fraction = e.rebuild_bandwidth_fraction;
  return scrubbed;
}

}  // namespace nsrel::core
