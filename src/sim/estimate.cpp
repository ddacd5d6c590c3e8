#include "sim/estimate.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::sim {

namespace {

MttdlEstimate from_mean_variance(double mean, double variance, int trials) {
  MttdlEstimate e;
  e.trials = trials;
  e.mean_hours = mean;
  e.stddev_hours = variance > 0.0 ? std::sqrt(variance) : 0.0;
  e.stderr_hours = e.stddev_hours / std::sqrt(static_cast<double>(trials));
  e.ci95_low_hours = e.mean_hours - 1.96 * e.stderr_hours;
  e.ci95_high_hours = e.mean_hours + 1.96 * e.stderr_hours;
  return e;
}

}  // namespace

double MttdlEstimate::relative_half_width() const {
  if (mean_hours <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.96 * stderr_hours / mean_hours;
}

void MomentAccumulator::add(double value) {
  ++count;
  const double delta = value - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (value - mean);
}

MomentAccumulator MomentAccumulator::merge(const MomentAccumulator& a,
                                           const MomentAccumulator& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  MomentAccumulator out;
  out.count = a.count + b.count;
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double n = static_cast<double>(out.count);
  const double delta = b.mean - a.mean;
  out.mean = a.mean + delta * (nb / n);
  out.m2 = a.m2 + b.m2 + delta * delta * (na * nb / n);
  return out;
}

void RatioAccumulator::add(double a, double b) {
  const double delta_a = a - time.mean;
  time.add(a);
  loss.add(b);
  co_moment += delta_a * (b - loss.mean);
}

RatioAccumulator RatioAccumulator::merge(const RatioAccumulator& x,
                                         const RatioAccumulator& y) {
  if (x.time.count == 0) return y;
  if (y.time.count == 0) return x;
  RatioAccumulator out;
  out.time = MomentAccumulator::merge(x.time, y.time);
  out.loss = MomentAccumulator::merge(x.loss, y.loss);
  const double nx = static_cast<double>(x.time.count);
  const double ny = static_cast<double>(y.time.count);
  const double n = nx + ny;
  out.co_moment = x.co_moment + y.co_moment +
                  (y.time.mean - x.time.mean) * (y.loss.mean - x.loss.mean) *
                      (nx * ny / n);
  return out;
}

MttdlEstimate make_estimate(const MomentAccumulator& acc) {
  NSREL_EXPECTS(acc.count >= 2);
  const double n = static_cast<double>(acc.count);
  return from_mean_variance(acc.mean, acc.m2 / (n - 1.0),
                            static_cast<int>(acc.count));
}

MttdlEstimate make_estimate(const RatioAccumulator& acc) {
  NSREL_EXPECTS(acc.time.count >= 2);
  const double n = static_cast<double>(acc.time.count);
  const double a = acc.time.mean;
  const double b = acc.loss.mean;
  if (!(b > 0.0)) {
    throw ErrorException(Error{
        ErrorCode::kNonFiniteResult, "sim.estimate",
        "no trial reached data loss in " + std::to_string(acc.time.count) +
            " trials: the MTTDL ratio is unbounded"});
  }
  const double var_a = acc.time.m2 / (n - 1.0);
  const double var_b = acc.loss.m2 / (n - 1.0);
  const double cov = acc.co_moment / (n - 1.0);
  const double ratio = a / b;
  // Delta method: the per-trial variance of (a - ratio * b) / mean(b).
  const double variance =
      (var_a - 2.0 * ratio * cov + ratio * ratio * var_b) / (b * b);
  // E[mean a / mean b] = ratio * (1 + var_b/(n b^2) - cov/(n a b)) + O(1/n^2).
  // (cov == 0 for a direct sampler, whose a may be 0.)
  const double bias =
      1.0 + var_b / (n * b * b) - (cov == 0.0 ? 0.0 : cov / (n * a * b));
  return from_mean_variance(ratio / bias, variance, static_cast<int>(n));
}

MttdlEstimate make_estimate(double sum, double sum_squares, int trials) {
  NSREL_EXPECTS(trials >= 2);
  const double n = static_cast<double>(trials);
  const double mean = sum / n;
  const double variance = (sum_squares - n * mean * mean) / (n - 1.0);
  return from_mean_variance(mean, variance, trials);
}

}  // namespace nsrel::sim
