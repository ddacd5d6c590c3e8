#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace perf_e2e {

double quantile(std::vector<double> samples, double q) {
  NSREL_EXPECTS(!samples.empty());
  NSREL_EXPECTS(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return samples[lower] + weight * (samples[upper] - samples[lower]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

Tail tail(std::vector<double> samples) {
  NSREL_EXPECTS(!samples.empty());
  const std::size_t n = samples.size();
  if (n < 2 * kTailBeyond) {
    Tail t;
    t.percentile = 50.0;
    t.value = median(samples);
    t.samples = n;
    t.beyond = n / 2;
    return t;
  }
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.percentile =
      100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  t.value = samples[n - kTailBeyond - 1];
  t.samples = n;
  t.beyond = kTailBeyond;
  return t;
}

double fail_frac(std::uint64_t failed, std::uint64_t attempted) {
  NSREL_EXPECTS(attempted >= 1);
  NSREL_EXPECTS(failed <= attempted);
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double unattributed_frac(double wall, const std::vector<double>& layers) {
  NSREL_EXPECTS(wall > 0.0);
  double attributed = 0.0;
  for (const double layer : layers) attributed += layer;
  return (wall - attributed) / wall;
}

double overhead_frac(double traced, double untraced) {
  NSREL_EXPECTS(untraced > 0.0);
  return traced / untraced - 1.0;
}

}  // namespace perf_e2e
