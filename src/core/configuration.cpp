#include "core/configuration.hpp"

#include <string>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::core {

int internal_fault_tolerance(InternalScheme scheme) {
  switch (scheme) {
    case InternalScheme::kNone:
      return 0;
    case InternalScheme::kRaid5:
      return 1;
    case InternalScheme::kRaid6:
      return 2;
  }
  NSREL_ASSERT(false);
}

InternalScheme parse_scheme(const std::string& name) {
  if (name == "none") return InternalScheme::kNone;
  if (name == "raid5") return InternalScheme::kRaid5;
  if (name == "raid6") return InternalScheme::kRaid6;
  throw ContractViolation("unknown scheme '" + name +
                          "' (use none|raid5|raid6)");
}

std::string scheme_name(InternalScheme scheme) {
  switch (scheme) {
    case InternalScheme::kNone:
      return "No Internal RAID";
    case InternalScheme::kRaid5:
      return "Internal RAID 5";
    case InternalScheme::kRaid6:
      return "Internal RAID 6";
  }
  NSREL_ASSERT(false);
}

std::string name(const Configuration& configuration) {
  return "FT" + std::to_string(configuration.node_fault_tolerance) + ", " +
         scheme_name(configuration.internal);
}

std::vector<Configuration> all_configurations() {
  std::vector<Configuration> result;
  for (int ft = 1; ft <= 3; ++ft) {
    for (const InternalScheme scheme :
         {InternalScheme::kNone, InternalScheme::kRaid5,
          InternalScheme::kRaid6}) {
      result.push_back(Configuration{scheme, ft});
    }
  }
  return result;
}

std::vector<Configuration> sensitivity_configurations() {
  return {Configuration{InternalScheme::kNone, 2},
          Configuration{InternalScheme::kRaid5, 2},
          Configuration{InternalScheme::kNone, 3}};
}

}  // namespace nsrel::core
