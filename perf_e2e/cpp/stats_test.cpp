// Unit tests for the benchmark's own arithmetic (stats.hpp): the tail
// rule, quantiles, fail_frac and the attribution shares.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // descending on purpose: the rules must sort
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(perf_e2e::quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perf_e2e::quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(perf_e2e::quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(perf_e2e::quantile({10.0, 20.0}, 0.25), 12.5);
  EXPECT_DOUBLE_EQ(perf_e2e::median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(perf_e2e::median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Quantile, RejectsEmptyInput) {
  EXPECT_THROW((void)perf_e2e::quantile({}, 0.5), nsrel::ContractViolation);
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
  // 100 samples 1..100: ten lie above 90, so the tail is p90 = 90.
  const perf_e2e::Tail t = perf_e2e::tail(one_to(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100U);
  EXPECT_EQ(t.beyond, 10U);
}

TEST(Tail, PercentileRisesWithSampleCount) {
  const perf_e2e::Tail t = perf_e2e::tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  const perf_e2e::Tail u = perf_e2e::tail(one_to(20000));
  EXPECT_DOUBLE_EQ(u.value, 19990.0);
  EXPECT_DOUBLE_EQ(u.percentile, 99.95);
}

TEST(Tail, CountsTiesAsSamples) {
  // 30 samples: twenty 1s then ten 5s. The tail is the 20th smallest (1)
  // and exactly the ten 5s rank above it.
  std::vector<double> values(20, 1.0);
  values.insert(values.end(), 10, 5.0);
  const perf_e2e::Tail t = perf_e2e::tail(values);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10U);
}

TEST(Tail, SmallRunsFallBackToTheMedian) {
  // 20 samples is the first count where the rule gives >= p50.
  const perf_e2e::Tail at20 = perf_e2e::tail(one_to(20));
  EXPECT_DOUBLE_EQ(at20.percentile, 50.0);
  EXPECT_DOUBLE_EQ(at20.value, 10.0);
  EXPECT_EQ(at20.beyond, 10U);
  const perf_e2e::Tail at7 = perf_e2e::tail(one_to(7));
  EXPECT_DOUBLE_EQ(at7.percentile, 50.0);
  EXPECT_DOUBLE_EQ(at7.value, 4.0);
  EXPECT_EQ(at7.samples, 7U);
  EXPECT_EQ(at7.beyond, 3U);
}

TEST(FailFrac, IsFailedOverAttempted) {
  EXPECT_DOUBLE_EQ(perf_e2e::fail_frac(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(perf_e2e::fail_frac(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(perf_e2e::fail_frac(5, 5), 1.0);
  EXPECT_THROW((void)perf_e2e::fail_frac(0, 0), nsrel::ContractViolation);
  EXPECT_THROW((void)perf_e2e::fail_frac(2, 1), nsrel::ContractViolation);
}

TEST(Unattributed, IsTheShareNoLayerCovers) {
  EXPECT_DOUBLE_EQ(perf_e2e::unattributed_frac(10.0, {6.0, 3.0}), 0.1);
  EXPECT_DOUBLE_EQ(perf_e2e::unattributed_frac(4.0, {}), 1.0);
  EXPECT_DOUBLE_EQ(perf_e2e::unattributed_frac(4.0, {4.0}), 0.0);
  // Double counting shows as a negative share instead of being clamped.
  EXPECT_DOUBLE_EQ(perf_e2e::unattributed_frac(4.0, {3.0, 2.0}), -0.25);
  EXPECT_THROW((void)perf_e2e::unattributed_frac(0.0, {1.0}),
               nsrel::ContractViolation);
}

TEST(Overhead, IsTracedOverUntracedMinusOne) {
  EXPECT_NEAR(perf_e2e::overhead_frac(11.0, 10.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(perf_e2e::overhead_frac(10.0, 10.0), 0.0);
  EXPECT_THROW((void)perf_e2e::overhead_frac(1.0, 0.0),
               nsrel::ContractViolation);
}

}  // namespace
