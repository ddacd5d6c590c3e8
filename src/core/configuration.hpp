// The paper's 9 redundancy configurations (section 3): three internal node
// schemes (no RAID, RAID 5, RAID 6) crossed with erasure codes of fault
// tolerance 1, 2 or 3 across nodes.
#pragma once

#include <string>
#include <vector>

namespace nsrel::core {

enum class InternalScheme : unsigned char { kNone, kRaid5, kRaid6 };

struct Configuration {
  InternalScheme internal = InternalScheme::kNone;
  int node_fault_tolerance = 1;  ///< erasure code strength across nodes

  friend bool operator==(const Configuration&, const Configuration&) = default;
};

/// Number of drive failures the internal scheme tolerates (0, 1, 2).
[[nodiscard]] int internal_fault_tolerance(InternalScheme scheme);

/// Parses the canonical scheme names shared by the CLI's --scheme flag
/// and scenario configuration tokens: "none" | "raid5" | "raid6".
/// Throws ContractViolation on anything else.
[[nodiscard]] InternalScheme parse_scheme(const std::string& name);

/// "No Internal RAID" / "Internal RAID 5" / "Internal RAID 6".
[[nodiscard]] std::string scheme_name(InternalScheme scheme);

/// Paper-style label, e.g. "FT2, Internal RAID 5".
[[nodiscard]] std::string name(const Configuration& configuration);

/// The 9 baseline configurations of Figure 13, ordered FT-major.
[[nodiscard]] std::vector<Configuration> all_configurations();

/// The three configurations section 6 carries into the sensitivity
/// analyses: FT2 no-internal-RAID, FT2 internal RAID 5, FT3
/// no-internal-RAID.
[[nodiscard]] std::vector<Configuration> sensitivity_configurations();

}  // namespace nsrel::core
