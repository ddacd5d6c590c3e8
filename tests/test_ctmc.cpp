// Tests for the CTMC substrate: chain construction, absorbing analysis
// (against closed forms for small chains), transient uniformization
// (against analytic exponentials), and the stationary solver.
#include <cstddef>
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ctmc/absorbing.hpp"
#include "ctmc/chain.hpp"
#include "ctmc/elimination.hpp"
#include "ctmc/stationary.hpp"
#include "ctmc/transient.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::ctmc {
namespace {

/// Single transient state with exit rate lambda: MTTA = 1/lambda,
/// stddev = 1/lambda (exponential distribution).
Chain single_exponential(double lambda) {
  Chain c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down", StateKind::kAbsorbing);
  c.add_transition(up, down, lambda);
  return c;
}

/// Two-state birth-death with repair: the classic M/M repairable pair.
Chain repairable_pair(double lambda, double mu) {
  Chain c;
  const StateId s0 = c.add_state("ok");
  const StateId s1 = c.add_state("degraded");
  const StateId s2 = c.add_state("failed", StateKind::kAbsorbing);
  c.add_transition(s0, s1, 2.0 * lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s1, s2, lambda);
  return c;
}

TEST(Chain, StateAndTransitionBookkeeping) {
  Chain c;
  const StateId a = c.add_state("a");
  const StateId b = c.add_state("b", StateKind::kAbsorbing);
  c.add_transition(a, b, 1.5);
  EXPECT_EQ(c.state_count(), 2u);
  EXPECT_EQ(c.transient_count(), 1u);
  EXPECT_EQ(c.absorbing_count(), 1u);
  EXPECT_EQ(c.find_state("a"), a);
  EXPECT_EQ(c.find_state("b"), b);
  EXPECT_DOUBLE_EQ(c.exit_rate(a), 1.5);
  EXPECT_DOUBLE_EQ(c.exit_rate(b), 0.0);
}

TEST(Chain, ParallelTransitionsAccumulate) {
  Chain c;
  const StateId a = c.add_state("a");
  const StateId b = c.add_state("b", StateKind::kAbsorbing);
  c.add_transition(a, b, 1.0);
  c.add_transition(a, b, 2.0);
  EXPECT_EQ(c.transitions().size(), 1u);
  EXPECT_DOUBLE_EQ(c.exit_rate(a), 3.0);
}

TEST(Chain, NonAdjacentDuplicatesMergeIntoTheFirstOccurrence) {
  Chain c;
  const StateId a = c.add_state("a");
  const StateId b = c.add_state("b", StateKind::kAbsorbing);
  const StateId d = c.add_state("c", StateKind::kAbsorbing);
  const double r1 = 0.1;
  const double r3 = 0.2;
  const double r4 = 0.3;
  c.add_transition(a, b, r1);
  c.add_transition(a, d, 0.5);
  c.add_transition(a, b, r3);
  const auto& transitions = c.transitions();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].from, a);
  EXPECT_EQ(transitions[0].to, b);
  EXPECT_EQ(transitions[1].from, a);
  EXPECT_EQ(transitions[1].to, d);
  EXPECT_EQ(transitions[0].rate, r1 + r3);
  EXPECT_EQ(transitions[1].rate, 0.5);
  // Accumulated in call order: (r1 + r3) + r4, which is one ulp away
  // from r1 + (r3 + r4).
  c.add_transition(a, b, r4);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].rate, (r1 + r3) + r4);
  EXPECT_NE(transitions[0].rate, r1 + (r3 + r4));
}

TEST(Chain, RejectsInvalidTransitions) {
  Chain c;
  const StateId a = c.add_state("a");
  const StateId b = c.add_state("b", StateKind::kAbsorbing);
  EXPECT_THROW(c.add_transition(a, b, 0.0), ContractViolation);
  EXPECT_THROW(c.add_transition(a, b, -1.0), ContractViolation);
  EXPECT_THROW(c.add_transition(a, b, HUGE_VAL), ContractViolation);
  EXPECT_THROW(c.add_transition(a, b, std::nan("")), ContractViolation);
  EXPECT_THROW(c.add_transition(a, a, 1.0), ContractViolation);
  EXPECT_THROW(c.add_transition(b, a, 1.0), ContractViolation);  // absorbing
  EXPECT_THROW(c.add_transition(a, 99, 1.0), ContractViolation);
}

TEST(Chain, FindStateThrowsOnMissingOrDuplicate) {
  Chain c;
  c.add_state("x");
  c.add_state("x");
  EXPECT_THROW((void)c.find_state("missing"), ContractViolation);
  EXPECT_THROW((void)c.find_state("x"), ContractViolation);
}

TEST(Chain, GeneratorRowsSumToZero) {
  const Chain c = repairable_pair(0.1, 5.0);
  const auto q = c.generator();
  ASSERT_EQ(q.rows(), 3u);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < q.cols(); ++j) sum += q.at(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-15);
  }
  // The absorbing state has no outgoing transition, so no stored entry.
  EXPECT_EQ(q.row_ptr()[2], q.row_ptr()[3]);
}

TEST(Chain, TransientGeneratorDiagonalIncludesAbsorbingOutflow) {
  // Q_B = -R: its diagonal carries the flow into absorbing states too.
  const Chain c = repairable_pair(0.1, 5.0);
  const auto r = c.absorption_matrix();
  ASSERT_EQ(r.rows(), 2u);
  EXPECT_DOUBLE_EQ(-r.at(0, 0), -0.2);
  EXPECT_DOUBLE_EQ(-r.at(1, 1), -(5.0 + 0.1));  // repair + absorbing outflow
}

TEST(Chain, AbsorptionMatrixIsNegatedTransientGenerator) {
  // The absorbing state is last, so Q_B is Q's leading 2 x 2 block.
  const Chain c = repairable_pair(0.2, 3.0);
  const auto r = c.absorption_matrix();
  const auto q = c.generator();
  ASSERT_EQ(r.rows(), 2u);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      EXPECT_DOUBLE_EQ(r.at(i, j), -q.at(i, j));
    }
  }
  EXPECT_GT(r.at(0, 0), 0.0);
  EXPECT_LE(r.at(0, 1), 0.0);
}

TEST(Chain, ValidateDetectsUnreachableAbsorption) {
  Chain c;
  const StateId a = c.add_state("a");
  const StateId trap = c.add_state("trap");
  c.add_state("loss", StateKind::kAbsorbing);
  c.add_transition(a, trap, 1.0);
  c.add_transition(trap, a, 1.0);
  EXPECT_FALSE(c.validate().empty());
}

TEST(Chain, ValidateNamesTheLowestIdStateThatCannotReachAbsorption) {
  // A long reachable path (found late by the reverse search) plus two
  // trapped states: the message names the trapped state of lowest id.
  Chain c;
  const StateId loss = c.add_state("loss", StateKind::kAbsorbing);
  StateId previous = loss;
  for (int i = 0; i < 50; ++i) {
    const StateId s = c.add_state("path" + std::to_string(i));
    c.add_transition(s, previous, 1.0);
    previous = s;
  }
  const StateId second = c.add_state("trap_b");
  const StateId first = c.add_state("trap_a");
  c.add_transition(first, second, 1.0);
  c.add_transition(second, first, 2.0);
  c.add_transition(previous, first, 0.5);
  EXPECT_EQ(c.validate(), "state 'trap_b' cannot reach absorption");
}

TEST(Chain, ValidateDetectsMissingStateKinds) {
  Chain only_absorbing;
  only_absorbing.add_state("a", StateKind::kAbsorbing);
  EXPECT_FALSE(only_absorbing.validate().empty());

  Chain only_transient;
  only_transient.add_state("t");
  EXPECT_FALSE(only_transient.validate().empty());
}

TEST(Absorbing, SingleExponentialMttaAndStddev) {
  const double lambda = 0.25;
  const Chain c = single_exponential(lambda);
  const auto analysis = AbsorbingSolver::analyze(c);
  EXPECT_NEAR(analysis.mean_time_to_absorption_hours, 1.0 / lambda, 1e-12);
  // Exponential: stddev == mean.
  EXPECT_NEAR(analysis.stddev_time_to_absorption_hours, 1.0 / lambda, 1e-9);
  ASSERT_EQ(analysis.absorption_probability.size(), 1u);
  EXPECT_NEAR(analysis.absorption_probability[0], 1.0, 1e-12);
}

TEST(Absorbing, RepairablePairMatchesClosedForm) {
  // MTTDL for the 3-state chain: ((3)lambda + mu) / (2 lambda^2)
  // with failure rates 2*lambda then lambda and repair mu.
  const double lambda = 0.01;
  const double mu = 10.0;
  const Chain c = repairable_pair(lambda, mu);
  const double mttdl = AbsorbingSolver::mttdl_hours(c);
  const double expected =
      (3.0 * lambda + mu) / (2.0 * lambda * lambda);
  EXPECT_NEAR(mttdl, expected, 1e-9 * expected);
}

TEST(Absorbing, OccupancySumsToMtta) {
  const Chain c = repairable_pair(0.05, 2.0);
  const auto analysis = AbsorbingSolver::analyze(c);
  double sum = 0.0;
  for (const double tau : analysis.occupancy_hours) sum += tau;
  EXPECT_NEAR(sum, analysis.mean_time_to_absorption_hours, 1e-12 * sum);
}

TEST(Absorbing, CompetingAbsorbingStatesSplitProportionally) {
  Chain c;
  const StateId s = c.add_state("s");
  const StateId a = c.add_state("a", StateKind::kAbsorbing);
  const StateId b = c.add_state("b", StateKind::kAbsorbing);
  c.add_transition(s, a, 3.0);
  c.add_transition(s, b, 1.0);
  const auto analysis = AbsorbingSolver::analyze(c);
  ASSERT_EQ(analysis.absorption_probability.size(), 2u);
  EXPECT_NEAR(analysis.absorption_probability[0], 0.75, 1e-12);
  EXPECT_NEAR(analysis.absorption_probability[1], 0.25, 1e-12);
  EXPECT_NEAR(analysis.mean_time_to_absorption_hours, 0.25, 1e-12);
}

TEST(Absorbing, InitialDistributionWeighting) {
  Chain c;
  const StateId fast = c.add_state("fast");
  const StateId slow = c.add_state("slow");
  const StateId done = c.add_state("done", StateKind::kAbsorbing);
  c.add_transition(fast, done, 10.0);
  c.add_transition(slow, done, 1.0);
  const auto analysis =
      AbsorbingSolver::analyze_distribution(c, {0.5, 0.5});
  EXPECT_NEAR(analysis.mean_time_to_absorption_hours, 0.5 * 0.1 + 0.5 * 1.0,
              1e-12);
}

TEST(Absorbing, RejectsAbsorbingInitialState) {
  const Chain c = single_exponential(1.0);
  EXPECT_THROW((void)AbsorbingSolver::analyze(c, 1), ContractViolation);
}

TEST(Absorbing, RejectsUnnormalizedDistribution) {
  const Chain c = single_exponential(1.0);
  EXPECT_THROW((void)AbsorbingSolver::analyze_distribution(c, {0.5}),
               ContractViolation);
}

TEST(Transient, SurvivalMatchesAnalyticExponential) {
  const double lambda = 0.5;
  const Chain c = single_exponential(lambda);
  const TransientSolver solver(c);
  for (const double t : {0.0, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(solver.survival(t), std::exp(-lambda * t), 1e-9) << "t=" << t;
  }
}

TEST(Transient, DistributionSumsToOne) {
  const Chain c = repairable_pair(0.3, 2.0);
  const TransientSolver solver(c);
  for (const double t : {0.1, 1.0, 10.0, 100.0}) {
    const auto dist = solver.distribution_at(t);
    double sum = 0.0;
    for (const double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(Transient, SurvivalIsMonotoneNonIncreasing) {
  const Chain c = repairable_pair(0.3, 2.0);
  const TransientSolver solver(c);
  const auto curve = solver.survival_curve({0.0, 1.0, 5.0, 20.0, 100.0});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-12);
  }
  EXPECT_NEAR(curve.front(), 1.0, 1e-12);
}

TEST(Transient, IntegratedSurvivalApproximatesMtta) {
  // MTTA == integral of the survival function; trapezoid over a fine grid
  // should land within a fraction of a percent.
  const Chain c = repairable_pair(0.5, 2.0);
  const double mtta = AbsorbingSolver::mttdl_hours(c);
  const TransientSolver solver(c);
  const double horizon = mtta * 12.0;
  const int steps = 3000;
  double integral = 0.0;
  double prev = solver.survival(0.0);
  for (int i = 1; i <= steps; ++i) {
    const double t = horizon * i / steps;
    const double current = solver.survival(t);
    integral += 0.5 * (prev + current) * (horizon / steps);
    prev = current;
  }
  EXPECT_NEAR(integral, mtta, 0.01 * mtta);
}

TEST(Elimination, MatchesLuOnSimpleChains) {
  const Chain single = single_exponential(0.25);
  EXPECT_NEAR(EliminationSolver::mean_absorption_time_hours(single, 0), 4.0,
              1e-12);
  const Chain pair = repairable_pair(0.01, 10.0);
  const double via_lu =
      AbsorbingSolver::analyze(pair).mean_time_to_absorption_hours;
  const double via_elimination =
      EliminationSolver::mean_absorption_time_hours(pair, 0);
  EXPECT_NEAR(via_elimination, via_lu, 1e-10 * via_lu);
}

TEST(Elimination, MatrixOverloadMatchesChainOverload) {
  const Chain c = repairable_pair(0.05, 3.0);
  const double via_chain = EliminationSolver::mean_absorption_time_hours(c, 0);
  // R = -Q_B in CSR, with the absorption rates supplied exactly.
  const double via_matrix = EliminationSolver::mean_absorption_time_hours(
      c.absorption_matrix(), c.rates_into(2), 0);
  EXPECT_NEAR(via_matrix, via_chain, 1e-12 * via_chain);
}

TEST(Elimination, SurvivesExtremeConditioning) {
  // A 3-state chain with MTTDL ~ mu^2/lambda^3 ~ 1e27: far beyond what LU
  // on the absorption matrix can resolve in doubles. Elimination must
  // still match the birth-death closed form
  //   MTTDL ~= mu^2 / (2*lambda^3) for 0->1->2->loss at rates
  //   2L, L(1-0), L with repair mu (leading order).
  Chain c;
  const StateId s0 = c.add_state("0");
  const StateId s1 = c.add_state("1");
  const StateId s2 = c.add_state("2");
  const StateId loss = c.add_state("loss", StateKind::kAbsorbing);
  const double lambda = 1e-9;
  const double mu = 1.0;
  c.add_transition(s0, s1, 3.0 * lambda);
  c.add_transition(s1, s2, 2.0 * lambda);
  c.add_transition(s2, loss, lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s2, s1, mu);
  const double mttdl = EliminationSolver::mean_absorption_time_hours(c, s0);
  const double expected = mu * mu / (6.0 * lambda * lambda * lambda);
  EXPECT_GT(mttdl, 0.0);
  EXPECT_NEAR(mttdl, expected, 1e-6 * expected);
}

TEST(Elimination, ValidatesInputs) {
  const Chain c = single_exponential(1.0);
  EXPECT_THROW((void)EliminationSolver::mean_absorption_time_hours(c, 1),
               ContractViolation);
  const auto bad_diag =
      linalg::sparse::CsrMatrix::from_triplets(1, 1, {{0, 0, -1.0}});
  EXPECT_THROW(
      (void)EliminationSolver::mean_absorption_time_hours(bad_diag, {0.0}, 0),
      ContractViolation);
}

TEST(Stationary, TwoStateFlowBalance) {
  Chain c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, 1.0);
  c.add_transition(down, up, 4.0);
  const auto pi = StationarySolver::distribution(c);
  EXPECT_NEAR(pi[up], 0.8, 1e-12);
  EXPECT_NEAR(pi[down], 0.2, 1e-12);
  EXPECT_NEAR(StationarySolver::occupancy(c, {up}), 0.8, 1e-12);
}

TEST(Stationary, BirthDeathMatchesDetailedBalance) {
  // 3-state birth-death: pi_i proportional to prod(lambda/mu).
  Chain c;
  const StateId s0 = c.add_state("0");
  const StateId s1 = c.add_state("1");
  const StateId s2 = c.add_state("2");
  const double lambda = 2.0;
  const double mu = 5.0;
  c.add_transition(s0, s1, lambda);
  c.add_transition(s1, s2, lambda);
  c.add_transition(s1, s0, mu);
  c.add_transition(s2, s1, mu);
  const auto pi = StationarySolver::distribution(c);
  const double rho = lambda / mu;
  const double z = 1.0 + rho + rho * rho;
  EXPECT_NEAR(pi[s0], 1.0 / z, 1e-12);
  EXPECT_NEAR(pi[s1], rho / z, 1e-12);
  EXPECT_NEAR(pi[s2], rho * rho / z, 1e-12);
}

TEST(Stationary, RejectsAbsorbingStates) {
  const Chain c = single_exponential(1.0);
  EXPECT_THROW((void)StationarySolver::distribution(c), ContractViolation);
}

// ---------------------------------------------------------------------
// Typed-error (try_) forms: numerical failures come back as Error
// values with stable codes, and the throwing forms wrap exactly them.

TEST(Stationary, TryDistributionFlagsReducibleChainAsSingular) {
  // Two disconnected recurrent components: the stationary distribution
  // is not unique, so the (normalized) linear system is singular.
  Chain c;
  const StateId a = c.add_state("a");
  const StateId b = c.add_state("b");
  const StateId x = c.add_state("x");
  const StateId y = c.add_state("y");
  c.add_transition(a, b, 1.0);
  c.add_transition(b, a, 1.0);
  c.add_transition(x, y, 1.0);
  c.add_transition(y, x, 1.0);
  const auto result = StationarySolver::try_distribution(c);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kSingularGenerator);
  EXPECT_EQ(result.error().layer, "ctmc.stationary");
  // The throwing form surfaces the same typed error as an exception.
  EXPECT_THROW((void)StationarySolver::distribution(c), ErrorException);
}

TEST(Stationary, TryDistributionMatchesThrowingFormOnHealthyChains) {
  Chain c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, 1.0);
  c.add_transition(down, up, 4.0);
  const auto result = StationarySolver::try_distribution(c);
  ASSERT_TRUE(result.has_value());
  const auto direct = StationarySolver::distribution(c);
  ASSERT_EQ(result.value().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(result.value()[i], direct[i]);
  }
}

TEST(Absorbing, TryAnalyzeEnforcesTheRcondGuard) {
  // The repairable pair is perfectly well conditioned, so the default
  // guard passes; an artificially strict threshold trips the typed
  // ill_conditioned error without touching exception paths.
  const Chain c = repairable_pair(1e-4, 1.0);
  const auto healthy = AbsorbingSolver::try_analyze(c, 0);
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ(healthy.value().mean_time_to_absorption_hours,
            AbsorbingSolver::analyze(c, 0).mean_time_to_absorption_hours);

  NumericalGuards strict;
  strict.min_rcond = 1.0;  // nothing short of the identity passes
  const auto flagged = AbsorbingSolver::try_analyze(c, 0, strict);
  ASSERT_FALSE(flagged.has_value());
  EXPECT_EQ(flagged.error().code, ErrorCode::kIllConditioned);
  EXPECT_EQ(flagged.error().layer, "ctmc.absorbing");
  // The detail names both the estimate and the threshold it missed.
  EXPECT_NE(flagged.error().detail.find("rcond"), std::string::npos);
  EXPECT_NE(flagged.error().detail.find("threshold"), std::string::npos);
}

TEST(Absorbing, TryAnalyzeKeepsPreconditionsAsContracts) {
  // Caller bugs stay ContractViolation even on the try_ path: typed
  // errors are reserved for data-dependent numerical failures.
  const Chain c = single_exponential(1.0);
  EXPECT_THROW((void)AbsorbingSolver::try_analyze(c, 1), ContractViolation);
  EXPECT_THROW(
      (void)AbsorbingSolver::try_analyze_distribution(c, {0.5, 0.2}),
      ContractViolation);
}

TEST(Elimination, TryFormMatchesThrowingFormBitwise) {
  const Chain c = repairable_pair(1e-3, 10.0);
  const auto result = EliminationSolver::try_mean_absorption_time_hours(c, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.value(),
            EliminationSolver::mean_absorption_time_hours(c, 0));
}

TEST(ErrorTaxonomy, CodesHaveStableNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kSingularGenerator),
               "singular_generator");
  EXPECT_STREQ(error_code_name(ErrorCode::kIllConditioned),
               "ill_conditioned");
  EXPECT_STREQ(error_code_name(ErrorCode::kNonFiniteResult),
               "non_finite_result");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidParameter),
               "invalid_parameter");
  EXPECT_STREQ(error_code_name(ErrorCode::kContractViolation),
               "contract_violation");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  const Error e{ErrorCode::kNonFiniteResult, "ctmc.absorbing", "mean <= 0"};
  EXPECT_EQ(e.message(), "ctmc.absorbing: non_finite_result: mean <= 0");
  EXPECT_STREQ(ErrorException(e).what(), e.message().c_str());
}

TEST(Transient, ZeroRateChainStaysAtInitialDistribution) {
  // Every state absorbing: all generator rows are zero, the uniformized
  // kernel is the identity, and pi(t) = pi(0) for every t.
  Chain c;
  c.add_state("a0", StateKind::kAbsorbing);
  c.add_state("a1", StateKind::kAbsorbing);
  const TransientSolver solver(c);
  EXPECT_DOUBLE_EQ(solver.uniformization_rate(), 1.0);  // the 0 fallback
  const auto dist = solver.try_distribution_at(1e6, 1);
  ASSERT_TRUE(dist.has_value());
  // The Poisson expansion truncates at 1 - tol mass, so "stays put" is
  // exact on the zero state and tolerance-accurate on the occupied one.
  EXPECT_DOUBLE_EQ(dist.value()[0], 0.0);
  EXPECT_NEAR(dist.value()[1], 1.0, 1e-6);
}

TEST(Transient, SingleStateChainIsAFixedPoint) {
  Chain c;
  c.add_state("only", StateKind::kAbsorbing);
  const TransientSolver solver(c);
  const auto dist = solver.try_distribution_at(42.0, 0);
  ASSERT_TRUE(dist.has_value());
  EXPECT_NEAR(dist.value()[0], 1.0, 1e-9);
  const auto survival = solver.try_survival(42.0, 0);
  ASSERT_TRUE(survival.has_value());
  EXPECT_DOUBLE_EQ(survival.value(), 0.0);  // no transient states
}

TEST(Transient, NonFiniteHorizonIsATypedError) {
  // Lambda * t overflows: the Poisson expansion cannot run, and the
  // failure must come back typed instead of producing garbage.
  const Chain c = single_exponential(1e9);
  const TransientSolver solver(c);
  const auto dist = solver.try_distribution_at(1e308, 0);
  ASSERT_FALSE(dist.has_value());
  EXPECT_EQ(dist.error().code, ErrorCode::kInvalidParameter);
  EXPECT_EQ(dist.error().layer, "ctmc.transient");
  const auto survival = solver.try_survival(1e308, 0);
  ASSERT_FALSE(survival.has_value());
  EXPECT_EQ(survival.error().code, ErrorCode::kInvalidParameter);
  // The throwing form surfaces the same error as an exception.
  EXPECT_THROW((void)solver.distribution_at(1e308, 0), ErrorException);
}

TEST(Transient, TryFormMatchesThrowingFormOnHealthyChains) {
  const Chain c = repairable_pair(0.3, 2.0);
  const TransientSolver solver(c);
  const auto dist = solver.try_distribution_at(5.0, 0);
  ASSERT_TRUE(dist.has_value());
  const auto direct = solver.distribution_at(5.0, 0);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(dist.value()[i], direct[i]);
  }
}

}  // namespace
}  // namespace nsrel::ctmc
