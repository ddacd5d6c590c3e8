// Monte-Carlo estimate of a mean with a normal-approximation confidence
// interval, shared by the chain and storage simulators, plus the
// streaming accumulators the parallel engine merges across chunks: one
// for a plain mean, and a bivariate one for the regenerative ratio
// estimator MTTDL = E[cycle time] / P(loss in a cycle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nsrel::sim {

struct MttdlEstimate {
  double mean_hours = 0.0;
  /// stderr_hours * sqrt(trials): the per-trial standard deviation of the
  /// estimator (for a direct sampler, the sample standard deviation).
  double stddev_hours = 0.0;
  double stderr_hours = 0.0;
  double ci95_low_hours = 0.0;
  double ci95_high_hours = 0.0;
  int trials = 0;

  /// True when `value` lies inside the 95% confidence interval.
  [[nodiscard]] bool covers(double value) const {
    return value >= ci95_low_hours && value <= ci95_high_hours;
  }

  /// Half-width of the 95% CI relative to the mean (the adaptive
  /// stopping criterion). Infinity until the mean is positive.
  [[nodiscard]] double relative_half_width() const;
};

/// A Monte-Carlo grid cell: the merged estimate plus the RNG seed that
/// produced it. This is what `nsrel simulate` sweeps store per cell when
/// they route through engine::evaluate — the analytic cells' counterpart
/// to core::AnalysisResult. The seed is part of the value because a sim
/// cell's identity is (model, trials, chunk, seed): rendering it lets a
/// reader reproduce any one cell without re-deriving the engine's
/// per-cell stream assignment.
struct SimEstimate {
  MttdlEstimate estimate;
  std::uint64_t seed = 0;
};

/// Streaming first/second central moments (Welford's algorithm), with
/// Chan et al.'s pairwise combine so per-chunk accumulators computed on
/// different threads merge into exactly the same result regardless of
/// which thread produced which chunk. The default-constructed value is
/// the identity for `merge`.
struct MomentAccumulator {
  long long count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean

  /// Folds one observation in (Welford update).
  void add(double value);

  /// Chan/Welford parallel combine; exact identity when either side is
  /// empty, and (count, mean, m2) depend only on the two inputs — never
  /// on thread scheduling.
  [[nodiscard]] static MomentAccumulator merge(const MomentAccumulator& a,
                                               const MomentAccumulator& b);
};

/// Paired observations (a, b) of one regenerative trial: a is a cycle
/// time, b a likelihood-weighted loss. Two MomentAccumulators
/// plus the co-moment, merged with the same Chan combine, so the ratio
/// a/b and its delta-method variance are schedule-independent too.
struct RatioAccumulator {
  MomentAccumulator time;  ///< a: cycle time (hours)
  MomentAccumulator loss;  ///< b: likelihood-weighted loss
  double co_moment = 0.0;  ///< sum of (a - mean a)(b - mean b)

  void add(double a, double b);

  [[nodiscard]] static RatioAccumulator merge(const RatioAccumulator& x,
                                              const RatioAccumulator& y);
};

/// Merges per-chunk accumulators with a balanced pairwise (tree) combine
/// in index order: deterministic for a given vector, and numerically
/// better-conditioned than a left fold when chunk counts are large.
template <class Accumulator>
[[nodiscard]] Accumulator merge_pairwise(std::vector<Accumulator> parts) {
  if (parts.empty()) return {};
  // Repeatedly combine adjacent pairs: the reduction tree depends only on
  // parts.size(), so the result is identical no matter how many threads
  // filled the vector.
  while (parts.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      parts[out++] = Accumulator::merge(parts[i], parts[i + 1]);
    }
    if (parts.size() % 2 == 1) parts[out++] = std::move(parts.back());
    parts.resize(out);
  }
  return parts.front();
}

/// Builds the estimate from a merged accumulator. Precondition:
/// acc.count >= 2.
[[nodiscard]] MttdlEstimate make_estimate(const MomentAccumulator& acc);

/// The ratio estimate mean(a) / mean(b) with the second-order ratio-bias
/// correction and a delta-method interval. When every b is 1 (a direct
/// sampler) it equals make_estimate(acc.time) bit for bit. Precondition:
/// acc.time.count >= 2. Throws ErrorException (non_finite_result) when
/// mean(b) == 0: no trial observed a loss, so the ratio is unbounded.
[[nodiscard]] MttdlEstimate make_estimate(const RatioAccumulator& acc);

/// Builds the estimate from accumulated first/second raw moments (the
/// historical serial path; kept for callers that already have sums).
[[nodiscard]] MttdlEstimate make_estimate(double sum, double sum_squares,
                                          int trials);

}  // namespace nsrel::sim
