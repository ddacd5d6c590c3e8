// Number formatting for reports: engineering/scientific notation helpers
// matching the magnitudes the paper plots (events per PB-year span ~1e-12
// to ~1e+2 across figures). Plus the one integer parser the CLI and the
// scenario reader share.
#pragma once

#include <string>

#include "util/error.hpp"

namespace nsrel {

/// "1.23e-05" style scientific with the given significant digits (>= 1).
[[nodiscard]] std::string sci(double v, int significant_digits = 3);

/// A confidence interval in sci(): "[1.23e+05, 4.56e+05]".
[[nodiscard]] std::string sci_interval(double low, double high);

/// Fixed-point with the given decimals.
[[nodiscard]] std::string fixed(double v, int decimals = 2);

/// Human-readable byte size: "300 GB", "128 KiB" (binary for sub-MB command
/// sizes, decimal for drive capacities -- the paper mixes both).
[[nodiscard]] std::string human_bytes(double bytes);

/// Hours rendered with an adaptive unit: "39.5 h", "4.2e+07 h (4.8e+03 yr)",
/// and "3.6e-301 h" for positive values too small to show in fixed point.
[[nodiscard]] std::string human_hours(double hours);

/// Parses `text` as a double (any strtod spelling, infinities included).
/// Text that is not a number, or is NaN, is a kInvalidParameter error
/// from `layer` whose detail starts with `what` (the flag or key name).
[[nodiscard]] Expected<double> parse_double(const std::string& text,
                                            const char* layer,
                                            const std::string& what);

/// Parses `text` as an int. Accepts any strtod spelling of an integral
/// value ("64", "1e3"); anything else — not a number, a fraction, or a
/// value outside the int range — is a kInvalidParameter error from
/// `layer` whose detail starts with `what` (the flag or key name).
[[nodiscard]] Expected<int> parse_int(const std::string& text,
                                      const char* layer,
                                      const std::string& what);

}  // namespace nsrel
