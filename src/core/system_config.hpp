// Full description of a networked-storage-node system: the inputs every
// model in this library consumes. `baseline()` is the section-6 parameter
// table verbatim.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rebuild/drive_model.hpp"
#include "rebuild/link_model.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace nsrel::core {

struct SystemConfig {
  int node_set_size = 64;        ///< N
  int redundancy_set_size = 8;   ///< R
  int drives_per_node = 12;      ///< d
  Hours node_mttf{400'000.0};    ///< paper: 400,000 h
  rebuild::DriveParams drive;    ///< MTTF, capacity, HER, IOPS, rate
  rebuild::LinkParams link;      ///< 10 Gb/s -> 800 MB/s sustained
  Bytes rebuild_command = kilobytes(128.0);
  Bytes restripe_command = megabytes(1.0);
  double capacity_utilization = 0.75;
  double rebuild_bandwidth_fraction = 0.10;

  /// The section-6 baseline (which is also the default-constructed value;
  /// this named factory exists for call-site readability).
  [[nodiscard]] static SystemConfig baseline() { return SystemConfig{}; }
};

/// The one domain check of a SystemConfig: every field finite and in
/// range, and r <= n. nullopt when valid; otherwise a core.system
/// invalid_parameter error whose detail starts with the offending
/// parameter's canonical name ("util must be in (0, 1]"), so callers can
/// re-badge it as their own input (a CLI flag, a scenario key).
[[nodiscard]] std::optional<Error> check(const SystemConfig& config);

/// Sets one field by its canonical parameter name (the names the CLI and
/// scenario files share): n, r, d, node-mttf, drive-mttf, capacity-gb,
/// her-exp (1 sector per 10^value bits), iops, xfer-mbps, link-gbps,
/// rebuild-kb, restripe-kb, util, bw-frac. Returns false for an unknown
/// name. The value is applied unchecked (call check() after the last
/// set); a count (n, r, d) truncates toward zero, and one that is NaN or
/// outside the int range is stored as 0, which check() rejects.
[[nodiscard]] bool set_parameter(SystemConfig& config, const std::string& name,
                                 double value);

/// The canonical parameter names accepted by set_parameter.
[[nodiscard]] std::vector<std::string> parameter_names();

/// Whether a canonical parameter is a count (n, r, d): an integer field.
[[nodiscard]] bool is_count_parameter(const std::string& name);

}  // namespace nsrel::core
