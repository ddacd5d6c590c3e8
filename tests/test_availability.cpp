// Tests for the availability extension: the renewal-reward identity
// A = MTTDL/(MTTDL + MTTR), structural properties of the repairable
// chain, and plausibility at the paper's baseline.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "ctmc/absorbing.hpp"
#include "models/availability.hpp"
#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "util/assert.hpp"

namespace nsrel::models {
namespace {

ctmc::Chain simple_loss_chain(double lambda, double mu) {
  ctmc::Chain c;
  const auto s0 = c.add_state("ok");
  const auto s1 = c.add_state("deg");
  const auto s2 = c.add_state("lost", ctmc::StateKind::kAbsorbing);
  c.add_transition(s0, s1, 2.0 * lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s1, s2, lambda);
  return c;
}

TEST(Availability, MakeRepairableStructure) {
  const ctmc::Chain absorbing = simple_loss_chain(0.01, 1.0);
  const ctmc::Chain repairable =
      AvailabilityModel::make_repairable(absorbing, 0, PerHour(0.5));
  EXPECT_EQ(repairable.state_count(), absorbing.state_count());
  EXPECT_EQ(repairable.absorbing_count(), 0u);
  // One extra transition: the restore edge.
  EXPECT_EQ(repairable.transitions().size(),
            absorbing.transitions().size() + 1);
  EXPECT_DOUBLE_EQ(repairable.exit_rate(2), 0.5);
}

TEST(Availability, RenewalRewardIdentityHoldsExactly) {
  // A = MTTDL / (MTTDL + restore_time): cycles of up-time (mean MTTDL)
  // and down-time (mean restore_time) renew at each restore.
  for (const double restore_hours : {1.0, 24.0, 720.0}) {
    const ctmc::Chain absorbing = simple_loss_chain(0.01, 1.0);
    const double mttdl = ctmc::AbsorbingSolver::mttdl_hours(absorbing, 0);
    const AvailabilityResult result =
        AvailabilityModel::analyze(absorbing, 0, Hours(restore_hours));
    const double expected = mttdl / (mttdl + restore_hours);
    EXPECT_NEAR(result.availability, expected, 1e-9 * expected)
        << restore_hours;
    EXPECT_NEAR(result.mttdl.value(), mttdl, 1e-9 * mttdl);
  }
}

TEST(Availability, DowntimeMinutesConsistentWithAvailability) {
  const ctmc::Chain absorbing = simple_loss_chain(0.05, 0.5);
  const AvailabilityResult result =
      AvailabilityModel::analyze(absorbing, 0, Hours(48.0));
  EXPECT_NEAR(result.downtime_minutes_per_year,
              (1.0 - result.availability) * kHoursPerYear * 60.0, 1e-9);
}

TEST(Availability, DegradedFractionMatchesRateRatio) {
  // In the simple chain, long-run P(degraded)/P(ok) ~ 2*lambda/mu when
  // loss is rare.
  const double lambda = 1e-4;
  const double mu = 1.0;
  const ctmc::Chain absorbing = simple_loss_chain(lambda, mu);
  const AvailabilityResult result =
      AvailabilityModel::analyze(absorbing, 0, Hours(1.0));
  EXPECT_NEAR(result.degraded_fraction, 2.0 * lambda / mu,
              0.01 * 2.0 * lambda / mu);
}

TEST(Availability, DegradedFractionStaysNonNegativeWhenNearlyAlwaysLost) {
  // A restore far longer than the MTTDL leaves the system lost nearly
  // all the time, so the degraded share is below 1e-290. Taken as
  // 1 - lost - healthy instead of summed, it cancels to a rounding
  // residue that can come out negative.
  const core::Analyzer analyzer(core::SystemConfig::baseline());
  const auto built =
      analyzer.build_chain({core::InternalScheme::kRaid5, 2});
  const AvailabilityResult result =
      AvailabilityModel::analyze(built.chain, built.healthy, Hours(1e300));
  EXPECT_GE(result.degraded_fraction, 0.0);
  EXPECT_LT(result.degraded_fraction, 1e-12);
}

TEST(Availability, BaselineNirFt2FiveNines) {
  // At the paper's baseline, FT2-NIR has MTTDL ~ 1.4e7 h; even a week-long
  // restore from backup leaves many nines of availability.
  const core::Analyzer analyzer(core::SystemConfig::baseline());
  const auto detail = analyzer.analyze({core::InternalScheme::kNone, 2});
  NoInternalRaidParams p;
  const auto& sys = analyzer.config();
  p.node_set_size = sys.node_set_size;
  p.redundancy_set_size = sys.redundancy_set_size;
  p.fault_tolerance = 2;
  p.drives_per_node = sys.drives_per_node;
  p.node_failure = rate_of(sys.node_mttf);
  p.drive_failure = rate_of(sys.drive.mttf);
  p.node_rebuild = detail.rebuild.node_rebuild_rate;
  p.drive_rebuild = detail.rebuild.drive_rebuild_rate;
  p.capacity = sys.drive.capacity;
  p.her_per_byte = sys.drive.her_per_byte;
  const NoInternalRaidModel model(p);
  const AvailabilityResult result = AvailabilityModel::analyze(
      model.chain(), NoInternalRaidModel::root_state(),
      Hours(7.0 * 24.0));
  EXPECT_GT(result.availability, 0.99998);
  EXPECT_LT(result.availability, 1.0);
  // The system is rebuilding a meaningful fraction of the time: 64 node
  // failures/400kh at ~5.3 h rebuilds plus 768 drive failures/300kh at
  // ~0.44 h rebuilds => ~0.2% of hours have a rebuild in flight.
  EXPECT_GT(result.degraded_fraction, 0.001);
  EXPECT_LT(result.degraded_fraction, 0.01);
}

TEST(Availability, ShorterRestoreImprovesAvailability) {
  const ctmc::Chain absorbing = simple_loss_chain(0.05, 0.5);
  const double fast =
      AvailabilityModel::analyze(absorbing, 0, Hours(1.0)).availability;
  const double slow =
      AvailabilityModel::analyze(absorbing, 0, Hours(100.0)).availability;
  EXPECT_GT(fast, slow);
}

TEST(Availability, ValidatesInputs) {
  const ctmc::Chain absorbing = simple_loss_chain(0.01, 1.0);
  EXPECT_THROW(
      (void)AvailabilityModel::make_repairable(absorbing, 2, PerHour(1.0)),
      ContractViolation);
  EXPECT_THROW(
      (void)AvailabilityModel::make_repairable(absorbing, 0, PerHour(0.0)),
      ContractViolation);
  EXPECT_THROW((void)AvailabilityModel::analyze(absorbing, 0, Hours(0.0)),
               ContractViolation);
}

}  // namespace
}  // namespace nsrel::models
