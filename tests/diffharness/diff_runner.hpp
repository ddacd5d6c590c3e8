// Comparison machinery for the differential-testing harness: bitwise
// equality for the GTH elimination against its dense oracle (bit-identical
// by construction) and ULP/relative distance for the LU factorizations
// (which pivot differently and agree only to the bound stated in
// DESIGN.md §11).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace nsrel::diffharness {

/// The raw bit pattern of a double.
[[nodiscard]] inline std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// True when the two doubles have the same bit pattern (so +0.0 and
/// -0.0 differ, and NaN payloads matter — exactly what "bit-identical"
/// promises).
[[nodiscard]] inline bool bit_equal(double a, double b) {
  return bits(a) == bits(b);
}

/// ULP distance via the standard order-preserving map from IEEE-754 bit
/// patterns to a signed number line (two's-complement flip of negative
/// values). NaN against anything is the maximum distance.
[[nodiscard]] inline std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const auto ordered = [](double x) -> std::int64_t {
    const std::uint64_t u = bits(x);
    const auto s = static_cast<std::int64_t>(u);
    return s < 0 ? static_cast<std::int64_t>(0x8000000000000000ULL - u) : s;
  };
  const std::int64_t oa = ordered(a);
  const std::int64_t ob = ordered(b);
  return oa > ob ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                 : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
}

/// |a - b| / max(|a|, |b|), zero when both are zero.
[[nodiscard]] inline double rel_diff(double a, double b) {
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  if (scale == 0.0) return 0.0;
  return std::fabs(a - b) / scale;
}

/// Accumulates worst-case distances across a sweep so a failing run
/// reports how close (or far) the two sides actually were.
struct DiffStats {
  std::size_t chains = 0;
  double max_rel = 0.0;
  std::uint64_t max_ulp = 0;

  void record(double a, double b) {
    max_rel = std::fmax(max_rel, rel_diff(a, b));
    const std::uint64_t u = ulp_distance(a, b);
    if (u > max_ulp) max_ulp = u;
  }
  void record(const std::vector<double>& a, const std::vector<double>& b) {
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < n; ++i) record(a[i], b[i]);
  }
  void note_chain() { ++chains; }
};

}  // namespace nsrel::diffharness
