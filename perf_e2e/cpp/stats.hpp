// The benchmark's own arithmetic: quantiles, the tail rule, failure and
// attribution shares. Kept apart from the workloads so stats_test.cpp
// can pin every rule on hand-made samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perf_e2e {

/// Linear-interpolation quantile (q in [0, 1]) of the samples, the
/// "type 7" rule numpy and spreadsheets use. Precondition: non-empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Median of the samples. Precondition: non-empty.
[[nodiscard]] double median(std::vector<double> samples);

/// A tail latency: the highest percentile that still has at least
/// kTailBeyond samples above it, its value and the sample count.
struct Tail {
  double percentile = 0.0;  ///< in [0, 100)
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above `value`
};

inline constexpr std::size_t kTailBeyond = 10;

/// With n sorted samples the tail is the (n - 10)-th smallest, at
/// percentile 100 (n - 10) / n, with exactly ten samples ranked above it.
/// The percentile never drops below the median: with fewer than 20
/// samples the tail is the median (and `beyond` says how many lie
/// above it). Precondition: non-empty.
[[nodiscard]] Tail tail(std::vector<double> samples);

/// failed / attempted. Precondition: attempted >= 1, failed <= attempted.
[[nodiscard]] double fail_frac(std::uint64_t failed, std::uint64_t attempted);

/// The share of `wall` no layer accounts for: (wall - sum(layers)) / wall.
/// Layer times are the benchmark's own timings of sequential calls into
/// each layer, so they never overlap; a negative result means a caller
/// double-counted and is returned as is. Precondition: wall > 0.
[[nodiscard]] double unattributed_frac(double wall,
                                       const std::vector<double>& layers);

/// traced / untraced - 1: what recording spans and metrics adds to a job.
/// Precondition: untraced > 0.
[[nodiscard]] double overhead_frac(double traced, double untraced);

}  // namespace perf_e2e
