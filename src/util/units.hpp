// Strong unit types used at the public API boundary.
//
// Reliability formulas mix rates, probabilities and times whose units are
// easy to confuse (the paper itself carries HER "per bits read" in one
// section and "per bytes read" in another). All `nsrel` public interfaces
// take these wrappers; internal formula code unwraps them into clearly
// named locals.
#pragma once

#include <compare>

#include "util/assert.hpp"

namespace nsrel {

namespace detail {

/// CRTP-free strong double: units with the same Tag compare and add;
/// cross-unit arithmetic requires explicit conversion.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  [[nodiscard]] constexpr double value() const { return value_; }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  friend constexpr Quantity operator*(double s, Quantity q) {
    return Quantity(s * q.value_);
  }
  friend constexpr Quantity operator*(Quantity q, double s) {
    return Quantity(s * q.value_);
  }
  friend constexpr Quantity operator/(Quantity q, double s) {
    return Quantity(q.value_ / s);
  }
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }
  friend constexpr auto operator<=>(Quantity, Quantity) = default;

 private:
  double value_ = 0.0;
};

}  // namespace detail

/// Elapsed or mean time in hours (the paper's native unit for MTTF/MTTR).
using Hours = detail::Quantity<struct HoursTag>;
/// Elapsed time in seconds (native unit of the rebuild data-flow model).
using Seconds = detail::Quantity<struct SecondsTag>;
/// Event rate in events per hour (failure and repair rates).
using PerHour = detail::Quantity<struct PerHourTag>;
/// Data size in bytes.
using Bytes = detail::Quantity<struct BytesTag>;
/// Throughput in bytes per second.
using BytesPerSecond = detail::Quantity<struct BytesPerSecondTag>;
/// Throughput in bits per second (how the paper quotes link speeds).
using BitsPerSecond = detail::Quantity<struct BitsPerSecondTag>;

inline constexpr double kSecondsPerHour = 3600.0;
inline constexpr double kHoursPerYear = 24.0 * 365.25;

[[nodiscard]] constexpr Seconds to_seconds(Hours h) {
  return Seconds(h.value() * kSecondsPerHour);
}
[[nodiscard]] constexpr Hours to_hours(Seconds s) {
  return Hours(s.value() / kSecondsPerHour);
}
[[nodiscard]] constexpr double to_years(Hours h) {
  return h.value() / kHoursPerYear;
}

/// Rate corresponding to a mean time between events. Requires t > 0.
[[nodiscard]] inline PerHour rate_of(Hours t) {
  NSREL_EXPECTS(t.value() > 0.0);
  return PerHour(1.0 / t.value());
}
/// Mean time between events for a rate. Requires r > 0.
[[nodiscard]] inline Hours mean_time_of(PerHour r) {
  NSREL_EXPECTS(r.value() > 0.0);
  return Hours(1.0 / r.value());
}

/// Time to move `amount` at `rate`. Requires rate > 0.
[[nodiscard]] inline Seconds transfer_time(Bytes amount, BytesPerSecond rate) {
  NSREL_EXPECTS(rate.value() > 0.0);
  NSREL_EXPECTS(amount.value() >= 0.0);
  return Seconds(amount.value() / rate.value());
}

[[nodiscard]] constexpr BytesPerSecond to_bytes_per_second(BitsPerSecond b) {
  return BytesPerSecond(b.value() / 8.0);
}

// Convenience literal-style factories (the paper quotes GB, Gb/s, KB...).
[[nodiscard]] constexpr Bytes kilobytes(double v) { return Bytes(v * 1024.0); }
[[nodiscard]] constexpr Bytes megabytes(double v) {
  return Bytes(v * 1024.0 * 1024.0);
}
[[nodiscard]] constexpr Bytes gigabytes(double v) {
  return Bytes(v * 1e9);  // drive vendors (and the paper) use decimal GB
}
[[nodiscard]] constexpr Bytes petabytes(double v) { return Bytes(v * 1e15); }
[[nodiscard]] constexpr BitsPerSecond gigabits_per_second(double v) {
  return BitsPerSecond(v * 1e9);
}
[[nodiscard]] constexpr BytesPerSecond megabytes_per_second(double v) {
  return BytesPerSecond(v * 1e6);
}

}  // namespace nsrel
