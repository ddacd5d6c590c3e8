#include "util/format.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace nsrel {

namespace {
std::string printf_to_string(const char* fmt, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, precision, v);
  return buf;
}
}  // namespace

std::string sci(double v, int significant_digits) {
  NSREL_EXPECTS(significant_digits >= 1);
  return printf_to_string("%.*e", v, significant_digits - 1);
}

std::string sci_interval(double low, double high) {
  // Appended piece by piece: g++ 12 misreports -Wrestrict on
  // `"literal" + std::string&&` in optimized builds.
  std::string interval = "[";
  interval += sci(low);
  interval += ", ";
  interval += sci(high);
  interval += "]";
  return interval;
}

std::string fixed(double v, int decimals) {
  NSREL_EXPECTS(decimals >= 0);
  return printf_to_string("%.*f", v, decimals);
}

std::string human_bytes(double bytes) {
  if (bytes < 0) {
    std::string negative = "-";  // appended, as in sci_interval
    negative += human_bytes(-bytes);
    return negative;
  }
  if (bytes < 1024.0 * 1024.0) {
    if (bytes >= 1024.0) return fixed(bytes / 1024.0, 0) + " KiB";
    return fixed(bytes, 0) + " B";
  }
  if (bytes < 1e9) return fixed(bytes / (1024.0 * 1024.0), 0) + " MiB";
  if (bytes < 1e12) return fixed(bytes / 1e9, 0) + " GB";
  if (bytes < 1e15) return fixed(bytes / 1e12, 1) + " TB";
  return fixed(bytes / 1e15, 2) + " PB";
}

std::string human_hours(double hours) {
  // Below 0.05 h a positive MTTDL would round to "0.0 h".
  if (hours > 0.0 && hours < 0.05) return sci(hours, 3) + " h";
  if (hours < 1e4) return fixed(hours, 1) + " h";
  return sci(hours, 3) + " h (" + sci(hours / kHoursPerYear, 3) + " yr)";
}

[[nodiscard]] Expected<double> parse_double(const std::string& text,
                                            const char* layer,
                                            const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || std::isnan(value)) {
    return Error{ErrorCode::kInvalidParameter, layer,
                 what + ": '" + text + "' is not a number"};
  }
  return value;
}

[[nodiscard]] Expected<int> parse_int(const std::string& text,
                                      const char* layer,
                                      const std::string& what) {
  const auto invalid = [&](const char* problem) {
    return Error{ErrorCode::kInvalidParameter, layer,
                 what + ": '" + text + "' " + problem};
  };
  const Expected<double> parsed = parse_double(text, layer, what);
  if (!parsed.has_value()) return parsed.error();
  const double value = parsed.value();
  // Range first: the bounds are exact doubles, and infinities fail here.
  if (value < static_cast<double>(std::numeric_limits<int>::min()) ||
      value > static_cast<double>(std::numeric_limits<int>::max())) {
    return invalid("is outside the int range");
  }
  if (value != std::trunc(value)) return invalid("is not an integer");
  return static_cast<int>(value);
}

}  // namespace nsrel
