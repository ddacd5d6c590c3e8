#include "core/system_config.hpp"

#include <cfloat>
#include <climits>
#include <cmath>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace nsrel::core {

namespace {

/// The domain of a parameter's stored field: above `min` (or at it when
/// `closed`) and at most `max`. Every max is finite, so NaN and inf
/// always fall outside.
struct Domain {
  double min;
  bool closed;
  double max;
  const char* text;
};

constexpr Domain kCountFrom1{1.0, true, INT_MAX,
                             "must be an integer in [1, 2147483647]"};
constexpr Domain kCountFrom2{2.0, true, INT_MAX,
                             "must be an integer in [2, 2147483647]"};
constexpr Domain kPositive{0.0, false, DBL_MAX, "must be finite and > 0"};
constexpr Domain kNonNegative{0.0, true, DBL_MAX, "must be finite and >= 0"};
constexpr Domain kFraction{0.0, false, 1.0, "must be in (0, 1]"};

bool contains(const Domain& domain, double x) {
  return (domain.closed ? x >= domain.min : x > domain.min) &&
         x <= domain.max;
}

/// A count truncated toward zero, or 0 (outside every count domain) when
/// the truncation is not an int: that conversion is undefined behaviour.
int to_count(double value) {
  if (!(value > INT_MIN - 1.0 && value < INT_MAX + 1.0)) return 0;
  return static_cast<int>(value);
}

double stored(int field) { return static_cast<double>(field); }
double stored(double field) { return field; }
template <class Tag>
double stored(detail::Quantity<Tag> field) {
  return field.value();
}

Hours hours(double value) { return Hours(value); }
double same(double value) { return value; }
/// HER quoted as "1 sector in 10^K bits": per byte = 8 * 10^-K.
double her_per_byte(double k) { return 8.0 * std::pow(10.0, -k); }

/// The section-6 parameter table, the one place that names a parameter:
/// visit(name, domain, field, to_field) per canonical name, where
/// `field` is the config field it sets, `domain` that field's domain,
/// and `to_field` maps the parameter's value to the field's.
template <typename Config, typename Visit>
void for_each_parameter(Config& c, Visit&& visit) {
  visit("n", kCountFrom2, c.node_set_size, to_count);
  visit("r", kCountFrom2, c.redundancy_set_size, to_count);
  visit("d", kCountFrom1, c.drives_per_node, to_count);
  visit("node-mttf", kPositive, c.node_mttf, hours);
  visit("drive-mttf", kPositive, c.drive.mttf, hours);
  visit("capacity-gb", kPositive, c.drive.capacity, gigabytes);
  visit("her-exp", kNonNegative, c.drive.her_per_byte, her_per_byte);
  visit("iops", kPositive, c.drive.max_iops, same);
  visit("xfer-mbps", kPositive, c.drive.sustained_rate, megabytes_per_second);
  visit("link-gbps", kPositive, c.link.raw_speed, gigabits_per_second);
  visit("rebuild-kb", kPositive, c.rebuild_command, kilobytes);
  visit("restripe-kb", kPositive, c.restripe_command, kilobytes);
  visit("util", kFraction, c.capacity_utilization, same);
  visit("bw-frac", kFraction, c.rebuild_bandwidth_fraction, same);
}

Error invalid(const std::string& name, const char* problem) {
  return Error{ErrorCode::kInvalidParameter, "core.system",
               name + " " + problem};
}

}  // namespace

std::optional<Error> check(const SystemConfig& config) {
  const char* name = nullptr;
  const char* problem = nullptr;
  for_each_parameter(config, [&](const char* parameter, const Domain& domain,
                                 const auto& field, auto) {
    if (name == nullptr && !contains(domain, stored(field))) {
      name = parameter;
      problem = domain.text;
    }
  });
  if (name != nullptr) return invalid(name, problem);
  if (config.redundancy_set_size > config.node_set_size) {
    return invalid("r", "must be <= n (the node set size)");
  }
  // Not a canonical parameter: the link model's constant.
  if (!contains(kFraction, config.link.efficiency)) {
    return invalid("link efficiency", kFraction.text);
  }
  return std::nullopt;
}

bool set_parameter(SystemConfig& config, const std::string& name,
                   double value) {
  bool found = false;
  for_each_parameter(config, [&](const char* parameter, const Domain&,
                                 auto& field, auto to_field) {
    if (name != parameter) return;
    field = to_field(value);
    found = true;
  });
  return found;
}

std::vector<std::string> parameter_names() {
  std::vector<std::string> names;
  SystemConfig config;
  for_each_parameter(config, [&](const char* name, const Domain&,
                                 const auto&, auto) {
    names.emplace_back(name);
  });
  return names;
}

bool is_count_parameter(const std::string& name) {
  bool count = false;
  SystemConfig config;
  for_each_parameter(config, [&](const char* parameter, const Domain&,
                                 const auto& field, auto) {
    count = count || (name == parameter &&
                      std::is_same_v<std::decay_t<decltype(field)>, int>);
  });
  return count;
}

}  // namespace nsrel::core
