// Tests for the no-internal-RAID models: the recursive chain construction
// vs the appendix's block-recursive absorption matrix, exact-vs-closed-form
// agreement, and structural properties of the failure-word state space.
#include <algorithm>
#include <cstddef>
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctmc/absorbing.hpp"
#include "ctmc/dot.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "models/no_internal_raid.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::models {
namespace {

NoInternalRaidParams baseline(int fault_tolerance) {
  NoInternalRaidParams p;
  p.node_set_size = 64;
  p.redundancy_set_size = 8;
  p.fault_tolerance = fault_tolerance;
  p.drives_per_node = 12;
  p.node_failure = PerHour(1.0 / 400'000.0);
  p.drive_failure = PerHour(1.0 / 300'000.0);
  p.node_rebuild = PerHour(0.19);
  p.drive_rebuild = PerHour(12.0 * 0.19);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

TEST(NoInternalRaid, ChainSizeIsPowerOfTwoTree) {
  for (int k = 1; k <= 5; ++k) {
    const NoInternalRaidModel model(baseline(k));
    const auto chain = model.chain();
    // 2^(k+1)-1 transient states + 1 absorbing.
    EXPECT_EQ(chain.transient_count(), (std::size_t{2} << k) - 1) << k;
    EXPECT_EQ(chain.absorbing_count(), 1u);
  }
}

TEST(NoInternalRaid, Ft1ChainMatchesFigure8Structure) {
  const NoInternalRaidParams p = baseline(1);
  const NoInternalRaidModel model(p);
  const auto chain = model.chain();
  // States: A (absorbing), root "0", "N", "d".
  const auto root = chain.find_state("0");
  const auto node_failed = chain.find_state("N");
  const auto drive_failed = chain.find_state("d");
  EXPECT_EQ(root, NoInternalRaidModel::root_state());
  // Exit rate of root: N(lambda_N + d lambda_d) (failure flow conserved
  // regardless of the h split).
  const double expected_exit =
      64.0 * (p.node_failure.value() + 12.0 * p.drive_failure.value());
  EXPECT_NEAR(chain.exit_rate(root), expected_exit, 1e-12 * expected_exit);
  // Exit of "N": repair mu_N plus (N-1)(lambda_N + d lambda_d).
  const double degraded_exit =
      p.node_rebuild.value() +
      63.0 * (p.node_failure.value() + 12.0 * p.drive_failure.value());
  EXPECT_NEAR(chain.exit_rate(node_failed), degraded_exit,
              1e-12 * degraded_exit);
  EXPECT_GT(chain.exit_rate(drive_failed), chain.exit_rate(node_failed) -
                                              p.node_rebuild.value());
}

/// baseline(k) with the redundancy set widened to 20 from k = 8 on, so
/// that R > k holds up to the k = 16 cap.
NoInternalRaidParams up_to_cap(int k) {
  NoInternalRaidParams p = baseline(k);
  if (k >= 8) p.redundancy_set_size = 20;
  return p;
}

TEST(NoInternalRaid, ChainAndRecursiveMatrixAgreeEntrywise) {
  // The two independent constructions (labeled transition tree vs the
  // appendix's block recursion) must produce the same absorption matrix:
  // the same CSR structure, and values within rounding.
  for (int k = 1; k <= 16; ++k) {
    const NoInternalRaidModel model(up_to_cap(k));
    const auto from_chain = model.chain().absorption_matrix();
    const auto from_recursion = model.absorption_matrix_recursive_sparse();
    ASSERT_EQ(from_chain.rows(), from_recursion.rows()) << "k=" << k;
    ASSERT_EQ(from_chain.row_ptr(), from_recursion.row_ptr()) << "k=" << k;
    ASSERT_EQ(from_chain.col_index(), from_recursion.col_index())
        << "k=" << k;
    double scale = 0.0;
    for (const double v : from_chain.values()) {
      scale = std::max(scale, std::abs(v));
    }
    for (std::size_t e = 0; e < from_chain.values().size(); ++e) {
      EXPECT_NEAR(from_chain.values()[e], from_recursion.values()[e],
                  1e-12 * scale)
          << "k=" << k << " entry " << e;
    }
  }
}

TEST(NoInternalRaid, ExactAndRecursiveMatrixMttdlAgree) {
  for (int k = 1; k <= 16; ++k) {
    const NoInternalRaidModel model(up_to_cap(k));
    const double via_chain = model.mttdl_exact().value();
    const double via_matrix = model.mttdl_recursive_matrix().value();
    EXPECT_NEAR(via_chain, via_matrix, 1e-8 * via_chain) << "k=" << k;
  }
}

TEST(NoInternalRaid, ConcurrentRepairChainMatchesGolden) {
  // Concurrent repair is the policy whose chain has parallel
  // transitions to merge: undoing either of two equal adjacent failures
  // reaches the same word. The golden pins the transition order and
  // every merged rate to the last bit (17 significant digits).
  // Regenerate it with the DOT of this chain, graph name and options as
  // below, written to tests/golden/nir_ft4_concurrent.dot.
  NoInternalRaidParams p = baseline(4);
  p.repair_policy = RepairPolicy::kConcurrent;
  ctmc::DotOptions options;
  options.graph_name = "nir_ft4_concurrent";
  options.rate_digits = 17;
  const std::string dot =
      ctmc::to_dot(NoInternalRaidModel(p).chain(), options);
  std::ifstream golden_file(std::string(NSREL_SOURCE_DIR) +
                            "/tests/golden/nir_ft4_concurrent.dot");
  ASSERT_TRUE(golden_file.good());
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(dot, golden.str());
}

TEST(NoInternalRaid, OverflowingRatesAreATypedErrorNotAContractTrip) {
  NoInternalRaidParams p = baseline(2);
  p.drive_failure = PerHour(1e307);  // d lambda_d overflows
  try {
    (void)NoInternalRaidModel(p).chain();
    FAIL() << "chain() accepted an infinite rate";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kSingularGenerator);
    EXPECT_EQ(e.error().layer, "models.no_internal_raid");
  }
}

TEST(NoInternalRaid, ClosedFormTracksExactForFt2AndUp) {
  // FT >= 2 keeps all h_alpha well below 1, so the paper's linear
  // hard-error model and our saturated chains agree to a few percent.
  for (int k = 2; k <= 4; ++k) {
    const NoInternalRaidModel model(baseline(k));
    const double exact = model.mttdl_exact().value();
    const double closed = model.mttdl_closed_form().value();
    EXPECT_NEAR(closed, exact, 0.05 * exact) << "k=" << k;
  }
}

TEST(NoInternalRaid, ClosedFormFt1WithinSaturationError) {
  // At FT1 h_N ~ 2 (saturates to 0.87), so linear-vs-saturated diverge;
  // they must still agree on the order of magnitude.
  const NoInternalRaidModel model(baseline(1));
  const double exact = model.mttdl_exact().value();
  const double closed = model.mttdl_closed_form().value();
  EXPECT_GT(closed / exact, 0.3);
  EXPECT_LT(closed / exact, 3.0);
}

TEST(NoInternalRaid, ClosedFormMatchesExactTightlyWithoutHer) {
  // With HER = 0 there is no saturation: only the usual lambda/mu-order
  // terms separate the approximation from the exact solve.
  for (int k = 1; k <= 4; ++k) {
    NoInternalRaidParams p = baseline(k);
    p.her_per_byte = 0.0;
    const NoInternalRaidModel model(p);
    const double exact = model.mttdl_exact().value();
    const double closed = model.mttdl_closed_form().value();
    EXPECT_NEAR(closed, exact, 0.01 * exact) << "k=" << k;
  }
}

TEST(NoInternalRaid, LRecursionMatchesHandComputedFt2) {
  // L_2(h^(2)) = d h (lambda_N + lambda_d)(mu_d lambda_N + mu_N lambda_d)
  // (derived in section 5.2.2 / Figure 12).
  const NoInternalRaidParams p = baseline(2);
  const NoInternalRaidModel model(p);
  const auto h = combinat::h_set(model.h_params());
  const double lambda_n = p.node_failure.value();
  const double lambda_d = p.drive_failure.value();
  const double computed =
      l_recursion(2, h, lambda_n, 12.0 * lambda_d, p.node_rebuild.value(),
                  p.drive_rebuild.value());
  const double h_base = combinat::h_base(model.h_params());
  const double expected = 12.0 * h_base * (lambda_n + lambda_d) *
                          (p.drive_rebuild.value() * lambda_n +
                           p.node_rebuild.value() * lambda_d);
  EXPECT_NEAR(computed, expected, 1e-12 * expected);
}

TEST(NoInternalRaid, HighFaultToleranceStaysPositiveAndTracksTheorem) {
  // Regression: at k = 6 (127 states, MTTDL ~ 1e19 h) a naive LU solve of
  // the absorption matrix returns a NEGATIVE time; the elimination solver
  // must stay positive and track the theorem's closed form.
  for (int k = 5; k <= 7; ++k) {
    NoInternalRaidParams p = baseline(k);
    p.redundancy_set_size = 12;
    const NoInternalRaidModel model(p);
    const double exact = model.mttdl_exact().value();
    const double via_matrix = model.mttdl_recursive_matrix().value();
    const double theorem = model.mttdl_closed_form().value();
    EXPECT_GT(exact, 0.0) << "k=" << k;
    EXPECT_NEAR(via_matrix, exact, 1e-8 * exact) << "k=" << k;
    EXPECT_NEAR(theorem, exact, 0.08 * exact) << "k=" << k;
  }
}

TEST(NoInternalRaid, MttdlGrowsSteeplyWithFaultTolerance) {
  double previous = 0.0;
  for (int k = 1; k <= 4; ++k) {
    const double mttdl = NoInternalRaidModel(baseline(k)).mttdl_exact().value();
    EXPECT_GT(mttdl, 50.0 * previous) << "k=" << k;
    previous = mttdl;
  }
}

TEST(NoInternalRaid, DriveFailuresDominateWithoutInternalRaid) {
  // d lambda_d = 4e-5 >> lambda_N = 2.5e-6, but node failures still carry
  // weight because node rebuilds are d times slower (lambda_N rides with
  // mu_d in the mixed denominators: mu_d*lambda_N ~ d*mu_N*lambda_d at
  // baseline). So suppressing node failures helps only modestly (<5x),
  // while suppressing drive failures helps by more than an order.
  NoInternalRaidParams base_params = baseline(2);
  base_params.her_per_byte = 0.0;
  NoInternalRaidParams robust_nodes = base_params;
  robust_nodes.node_failure = PerHour(1e-12);
  NoInternalRaidParams robust_drives = base_params;
  robust_drives.drive_failure = PerHour(1e-12);
  const double base = NoInternalRaidModel(base_params).mttdl_exact().value();
  const double no_node_failures =
      NoInternalRaidModel(robust_nodes).mttdl_exact().value();
  const double no_drive_failures =
      NoInternalRaidModel(robust_drives).mttdl_exact().value();
  EXPECT_LT(no_node_failures, 5.0 * base);
  EXPECT_GT(no_drive_failures, 10.0 * base);
}

TEST(NoInternalRaid, StateLabelsEncodeFailureWords) {
  const NoInternalRaidModel model(baseline(2));
  const auto chain = model.chain();
  // All 7 transient labels exist: 00, N0, NN, Nd, d0, dN, dd.
  for (const char* label : {"00", "N0", "NN", "Nd", "d0", "dN", "dd"}) {
    EXPECT_NO_THROW((void)chain.find_state(label)) << label;
  }
}

TEST(NoInternalRaid, RejectsInvalidParameters) {
  NoInternalRaidParams p = baseline(2);
  p.fault_tolerance = 0;
  EXPECT_THROW(NoInternalRaidModel{p}, ContractViolation);
  p = baseline(2);
  p.drive_rebuild = PerHour(0.0);
  EXPECT_THROW(NoInternalRaidModel{p}, ContractViolation);
  p = baseline(2);
  p.redundancy_set_size = 2;  // R <= k
  EXPECT_THROW(NoInternalRaidModel{p}, ContractViolation);
  p = baseline(2);
  p.fault_tolerance = 17;  // chain would be 2^18 states
  EXPECT_THROW(NoInternalRaidModel{p}, ContractViolation);
}

TEST(NoInternalRaid, FaultToleranceCapBoundaryIsExactlySixteen) {
  // The documented cap is fault_tolerance <= 16 (a 2^17-1 = 131071-state
  // absorption matrix). k = 16 must construct AND solve end to end on the
  // sparse path; k = 17 is a contract violation at construction.
  NoInternalRaidParams p = baseline(16);
  p.redundancy_set_size = 32;  // R must exceed k
  const NoInternalRaidModel model(p);
  const auto sparse = model.absorption_matrix_recursive_sparse();
  EXPECT_EQ(sparse.rows(), (std::size_t{2} << 16) - 1);
  EXPECT_EQ(model.absorption_rates_recursive().size(), sparse.rows());
  const double mttdl = model.mttdl_recursive_matrix().value();
  EXPECT_TRUE(std::isfinite(mttdl));
  EXPECT_GT(mttdl, 0.0);

  p.fault_tolerance = 17;
  EXPECT_THROW(NoInternalRaidModel{p}, ContractViolation);
}

TEST(NoInternalRaid, ConcurrentRepairBeatsSingleRepair) {
  // More repair throughput can only help; the gap widens as failures get
  // frequent relative to repairs.
  NoInternalRaidParams p = baseline(3);
  p.node_failure = PerHour(0.01);
  p.drive_failure = PerHour(0.01);
  const double single = NoInternalRaidModel(p).mttdl_exact().value();
  p.repair_policy = RepairPolicy::kConcurrent;
  const double concurrent = NoInternalRaidModel(p).mttdl_exact().value();
  EXPECT_GT(concurrent, 1.02 * single);
}

TEST(NoInternalRaid, RepairPoliciesCoincideAtFt1) {
  // With at most one outstanding failure the policies are identical.
  NoInternalRaidParams p = baseline(1);
  const double single = NoInternalRaidModel(p).mttdl_exact().value();
  p.repair_policy = RepairPolicy::kConcurrent;
  const double concurrent = NoInternalRaidModel(p).mttdl_exact().value();
  EXPECT_NEAR(concurrent, single, 1e-12 * single);
}

TEST(NoInternalRaid, SingleRepairIsConservativeByABoundedFactor) {
  // Concurrent repair multiplies the per-level repair throughput; for the
  // mixed mu_N/mu_d chains the gain at FT2 is modest (~7%: the dominant
  // dd path repairs at mu_d either way) but reaches ~4x at FT3 where LIFO
  // makes slow node rebuilds block fast drive rebuilds queued behind
  // them. The paper's single-repair chains are conservative by exactly
  // these factors.
  NoInternalRaidParams ft2 = baseline(2);
  const double ft2_single = NoInternalRaidModel(ft2).mttdl_exact().value();
  ft2.repair_policy = RepairPolicy::kConcurrent;
  const double ft2_concurrent = NoInternalRaidModel(ft2).mttdl_exact().value();
  EXPECT_GT(ft2_concurrent, ft2_single);
  EXPECT_LT(ft2_concurrent, 1.5 * ft2_single);

  NoInternalRaidParams ft3 = baseline(3);
  const double ft3_single = NoInternalRaidModel(ft3).mttdl_exact().value();
  ft3.repair_policy = RepairPolicy::kConcurrent;
  const double ft3_concurrent = NoInternalRaidModel(ft3).mttdl_exact().value();
  EXPECT_GT(ft3_concurrent, 2.0 * ft3_single);
  EXPECT_LT(ft3_concurrent, 6.0 * ft3_single);  // bounded by 3!
}

TEST(NoInternalRaid, MatrixPathsRejectConcurrentPolicy) {
  NoInternalRaidParams p = baseline(2);
  p.repair_policy = RepairPolicy::kConcurrent;
  const NoInternalRaidModel model(p);
  EXPECT_THROW((void)model.absorption_matrix_recursive_sparse(),
               ContractViolation);
  EXPECT_THROW((void)model.mttdl_recursive_matrix(), ContractViolation);
}

TEST(NoInternalRaid, LRecursionValidatesInput) {
  EXPECT_THROW(
      (void)l_recursion(2, std::vector<double>{0.1, 0.2}, 1.0, 1.0, 1.0, 1.0),
      ContractViolation);
}

class NirSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(NirSweep, ClosedFormAgreesAcrossParameterSpace) {
  const auto [n, d, k] = GetParam();
  NoInternalRaidParams p = baseline(k);
  p.node_set_size = n;
  p.redundancy_set_size = std::min(8, n);
  p.drives_per_node = d;
  p.her_per_byte = 0.0;  // isolate the failure-path approximation
  const NoInternalRaidModel model(p);
  const double exact = model.mttdl_exact().value();
  const double closed = model.mttdl_closed_form().value();
  // The theorem drops terms of relative order ~2N(lambda_N + d lambda_d)
  // / mu_N, which reaches ~11% at the (N=128, d=24) corner; scale the
  // tolerance with that known first dropped term.
  const double dropped = 2.0 * n *
                         (p.node_failure.value() +
                          d * p.drive_failure.value()) /
                         p.node_rebuild.value();
  EXPECT_NEAR(closed, exact, (0.02 + 1.5 * dropped) * exact);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NirSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 128),
                       ::testing::Values(4, 12, 24),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace nsrel::models
