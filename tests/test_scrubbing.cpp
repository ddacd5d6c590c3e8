// Tests for the scrubbing model: calibration identity, bandwidth
// accounting, the reliability trade-off, and the existence of an interior
// optimum scrub period.
#include <cstddef>
#include <gtest/gtest.h>
#include <vector>

#include "core/analyzer.hpp"
#include "core/scrubbing.hpp"
#include "util/assert.hpp"

namespace nsrel::core {
namespace {

ScrubbingParams with_period(double hours) {
  ScrubbingParams p;
  p.period = Hours(hours);
  return p;
}

TEST(Scrubbing, CalibrationReproducesDatasheetHerAtReferenceLatency) {
  // Scrubbing exactly at the reference latency must leave HER unchanged.
  ScrubbingParams p;
  p.period = Hours(kHoursPerYear);
  p.reference_latency = Hours(kHoursPerYear);
  const ScrubbingModel model(p);
  const core::SystemConfig system = core::SystemConfig::baseline();
  const ScrubbingEffect e = model.effect(system);
  EXPECT_NEAR(e.effective_her_per_byte, system.drive.her_per_byte, 1e-25);
}

TEST(Scrubbing, EffectiveHerScalesLinearlyWithPeriod) {
  const core::SystemConfig system = core::SystemConfig::baseline();
  const double at_720 =
      ScrubbingModel(with_period(720.0)).effect(system).effective_her_per_byte;
  const double at_360 =
      ScrubbingModel(with_period(360.0)).effect(system).effective_her_per_byte;
  EXPECT_NEAR(at_720, 2.0 * at_360, 1e-12 * at_720);
}

TEST(Scrubbing, BandwidthAccounting) {
  // Monthly scrub of a 300 GB drive at 1 MiB commands (~31.9 MB/s
  // effective): a ~2.6 h pass every 720 h is ~0.36% of the drive.
  const core::SystemConfig system = core::SystemConfig::baseline();
  const ScrubbingEffect e =
      ScrubbingModel(with_period(720.0)).effect(system);
  EXPECT_NEAR(e.scrub_bandwidth_fraction, 0.0036, 0.0005);
  EXPECT_NEAR(e.rebuild_bandwidth_fraction,
              system.rebuild_bandwidth_fraction - e.scrub_bandwidth_fraction,
              1e-12);
}

TEST(Scrubbing, OverAggressiveScrubExhaustsBudgetAndThrows) {
  // A ~2.6 h pass every 10 hours needs 26% of the drive — more than the
  // 10% rebuild budget.
  const core::SystemConfig system = core::SystemConfig::baseline();
  EXPECT_THROW((void)ScrubbingModel(with_period(10.0)).effect(system),
               ContractViolation);
}

TEST(Scrubbing, ApplyProducesValidConfig) {
  const core::SystemConfig system = core::SystemConfig::baseline();
  const core::SystemConfig scrubbed =
      ScrubbingModel(with_period(720.0)).apply(system);
  EXPECT_FALSE(check(scrubbed).has_value());
  EXPECT_LT(scrubbed.drive.her_per_byte, system.drive.her_per_byte);
  EXPECT_LT(scrubbed.rebuild_bandwidth_fraction,
            system.rebuild_bandwidth_fraction);
}

TEST(Scrubbing, MonthlyScrubImprovesHardErrorBoundConfigs) {
  // FT2-NIR at baseline is dominated by hard errors during rebuild, so a
  // monthly scrub (12x lower effective HER for ~4% less rebuild
  // bandwidth) must be a clear win.
  const core::SystemConfig baseline = core::SystemConfig::baseline();
  const core::SystemConfig scrubbed =
      ScrubbingModel(with_period(720.0)).apply(baseline);
  const core::Configuration config{core::InternalScheme::kNone, 2};
  const double before = core::Analyzer(baseline).events_per_pb_year(config);
  const double after = core::Analyzer(scrubbed).events_per_pb_year(config);
  EXPECT_LT(after, 0.5 * before);
}

TEST(Scrubbing, InteriorOptimumExists) {
  // Sweep the period: events/PB-yr should fall, bottom out, and rise
  // again as scrubbing starts starving rebuilds.
  const core::SystemConfig baseline = core::SystemConfig::baseline();
  const core::Configuration config{core::InternalScheme::kNone, 2};
  std::vector<double> events;
  const std::vector<double> periods{30.0, 60.0, 120.0, 480.0, 2000.0, 8766.0};
  for (const double period : periods) {
    const core::SystemConfig scrubbed =
        ScrubbingModel(with_period(period)).apply(baseline);
    events.push_back(core::Analyzer(scrubbed).events_per_pb_year(config));
  }
  // The best period is neither the shortest nor the longest probed.
  const auto best =
      std::min_element(events.begin(), events.end()) - events.begin();
  EXPECT_GT(best, 0) << "optimum at the aggressive end";
  EXPECT_LT(static_cast<std::size_t>(best), events.size() - 1)
      << "optimum at the lazy end";
}

TEST(Scrubbing, ValidatesParameters) {
  EXPECT_THROW(ScrubbingModel(with_period(0.0)), ContractViolation);
  ScrubbingParams p;
  p.reference_latency = Hours(0.0);
  EXPECT_THROW(ScrubbingModel{p}, ContractViolation);
}

}  // namespace
}  // namespace nsrel::core
