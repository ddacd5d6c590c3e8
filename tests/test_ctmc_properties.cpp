// Property tests over RANDOM absorbing chains: the three solution paths
// (LU analysis, GTH elimination, trajectory simulation) and the transient
// solver must agree on chains they were never hand-tuned for. Also covers
// the DOT exporter.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ctmc/absorbing.hpp"
#include "ctmc/chain.hpp"
#include "ctmc/dot.hpp"
#include "ctmc/elimination.hpp"
#include "ctmc/transient.hpp"
#include "sim/chain_simulator.hpp"
#include "util/rng.hpp"

namespace nsrel::ctmc {
namespace {

/// A random absorbing chain: `transients` states plus 1-2 absorbing
/// states; every transient has a random out-degree; connectivity to
/// absorption is guaranteed by construction (state i always has an edge
/// to i+1, the last transient feeding the absorber).
Chain random_chain(std::size_t transients, Xoshiro256& rng) {
  Chain c;
  for (std::size_t i = 0; i < transients; ++i) {
    std::string label = "t";
    label += std::to_string(i);
    c.add_state(label);
  }
  const StateId absorber_a =
      c.add_state("lossA", StateKind::kAbsorbing);
  const StateId absorber_b = c.add_state("lossB", StateKind::kAbsorbing);
  const auto random_rate = [&] { return 0.05 + rng.uniform() * 4.0; };
  // Forward spine guarantees absorption is reachable from everywhere.
  for (std::size_t i = 0; i + 1 < transients; ++i) {
    c.add_transition(i, i + 1, random_rate());
  }
  c.add_transition(transients - 1, absorber_a, random_rate());
  // Random extra edges (including back edges and direct absorptions).
  const std::size_t extra = 2 * transients;
  for (std::size_t e = 0; e < extra; ++e) {
    const StateId from = rng.below(transients);
    StateId to = rng.below(transients + 2);
    if (to == from) to = absorber_b;
    if (c.state(from).kind != StateKind::kTransient) continue;
    c.add_transition(from, to, random_rate());
  }
  return c;
}

class RandomChainTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainTest, LuAndEliminationAgree) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const Chain c = random_chain(3 + rng.below(10), rng);
  ASSERT_TRUE(c.validate().empty());
  const double via_lu =
      AbsorbingSolver::analyze(c, 0).mean_time_to_absorption_hours;
  const double via_elimination =
      EliminationSolver::mean_absorption_time_hours(c, 0);
  EXPECT_NEAR(via_elimination, via_lu, 1e-9 * via_lu);
}

TEST_P(RandomChainTest, AbsorptionProbabilitiesSumToOne) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const Chain c = random_chain(3 + rng.below(10), rng);
  const auto analysis = AbsorbingSolver::analyze(c, 0);
  double total = 0.0;
  for (const double prob : analysis.absorption_probability) {
    EXPECT_GE(prob, -1e-12);
    total += prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(RandomChainTest, OccupancyTimesAreNonNegativeAndSumToMtta) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1500);
  const Chain c = random_chain(3 + rng.below(10), rng);
  const auto analysis = AbsorbingSolver::analyze(c, 0);
  double sum = 0.0;
  for (const double tau : analysis.occupancy_hours) {
    EXPECT_GE(tau, -1e-12);
    sum += tau;
  }
  EXPECT_NEAR(sum, analysis.mean_time_to_absorption_hours, 1e-9 * sum);
}

TEST_P(RandomChainTest, IntegratedSurvivalMatchesMtta) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 2500);
  const Chain c = random_chain(3 + rng.below(6), rng);
  const double mtta = AbsorbingSolver::mttdl_hours(c, 0);
  const TransientSolver solver(c);
  // Trapezoid integral of the survival function out to 14 mean lifetimes.
  const double horizon = 14.0 * mtta;
  const int steps = 800;
  double integral = 0.0;
  double prev = 1.0;
  for (int i = 1; i <= steps; ++i) {
    const double t = horizon * i / steps;
    const double current = solver.survival(t, 0);
    integral += 0.5 * (prev + current) * (horizon / steps);
    prev = current;
  }
  EXPECT_NEAR(integral, mtta, 0.03 * mtta);
}

TEST_P(RandomChainTest, SimulatorAgreesWithSolver) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 3500);
  const Chain c = random_chain(3 + rng.below(6), rng);
  const double analytic = AbsorbingSolver::mttdl_hours(c, 0);
  sim::ChainSimulator simulator(c,
                                static_cast<std::uint64_t>(GetParam()) + 9000);
  const auto estimate = simulator.estimate(3000, 0);
  EXPECT_NEAR(estimate.mean_hours, analytic, 5.0 * estimate.stderr_hours);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainTest, ::testing::Range(0, 12));

TEST(Dot, RendersStatesAndTransitions) {
  Chain c;
  const StateId ok = c.add_state("ok");
  const StateId loss = c.add_state("data_loss", StateKind::kAbsorbing);
  c.add_transition(ok, loss, 0.125);
  const std::string dot = to_dot(c, {.graph_name = "fig", .rate_digits = 3});
  EXPECT_NE(dot.find("digraph \"fig\""), std::string::npos);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  EXPECT_NE(dot.find("label=\"ok\""), std::string::npos);
  EXPECT_NE(dot.find("shape=doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
  EXPECT_NE(dot.find("1.25e-01"), std::string::npos);
}

TEST(Dot, EscapesQuotesInLabels) {
  Chain c;
  c.add_state("we\"ird");
  c.add_state("loss", StateKind::kAbsorbing);
  c.add_transition(0, 1, 1.0);
  const std::string dot = to_dot(c);
  EXPECT_NE(dot.find("we\\\"ird"), std::string::npos);
}

}  // namespace
}  // namespace nsrel::ctmc
