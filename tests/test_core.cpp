// Tests for the top-level Analyzer: configuration enumeration, capacity
// normalization, method agreement, and target evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "core/analyzer.hpp"
#include "core/solve_cache.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::core {
namespace {

TEST(Configuration, InternalFaultTolerance) {
  EXPECT_EQ(internal_fault_tolerance(InternalScheme::kNone), 0);
  EXPECT_EQ(internal_fault_tolerance(InternalScheme::kRaid5), 1);
  EXPECT_EQ(internal_fault_tolerance(InternalScheme::kRaid6), 2);
}

TEST(Configuration, Names) {
  EXPECT_EQ(name(Configuration{InternalScheme::kRaid5, 2}),
            "FT2, Internal RAID 5");
  EXPECT_EQ(name(Configuration{InternalScheme::kNone, 3}),
            "FT3, No Internal RAID");
}

TEST(Configuration, AllConfigurationsAreTheNineOfFigure13) {
  const auto all = all_configurations();
  ASSERT_EQ(all.size(), 9u);
  // FT-major ordering, scheme minor.
  EXPECT_EQ(all[0], (Configuration{InternalScheme::kNone, 1}));
  EXPECT_EQ(all[4], (Configuration{InternalScheme::kRaid5, 2}));
  EXPECT_EQ(all[8], (Configuration{InternalScheme::kRaid6, 3}));
}

TEST(Configuration, SensitivitySetMatchesSection6DownSelect) {
  const auto survivors = sensitivity_configurations();
  ASSERT_EQ(survivors.size(), 3u);
  EXPECT_EQ(survivors[0], (Configuration{InternalScheme::kNone, 2}));
  EXPECT_EQ(survivors[1], (Configuration{InternalScheme::kRaid5, 2}));
  EXPECT_EQ(survivors[2], (Configuration{InternalScheme::kNone, 3}));
}

TEST(SystemConfig, BaselineIsValid) {
  EXPECT_FALSE(check(SystemConfig::baseline()).has_value());
}

TEST(SystemConfig, ValidationCatchesBadFields) {
  // Each failure is a typed invalid_parameter naming the parameter.
  const auto expect_rejects = [](const SystemConfig& c, const char* name) {
    const std::optional<Error> bad = check(c);
    ASSERT_TRUE(bad.has_value()) << name;
    EXPECT_EQ(bad->code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(bad->detail.rfind(std::string(name) + " ", 0), 0u)
        << bad->detail;
  };
  SystemConfig c = SystemConfig::baseline();
  c.node_set_size = 1;
  expect_rejects(c, "n");
  c = SystemConfig::baseline();
  c.redundancy_set_size = 100;  // > N
  expect_rejects(c, "r");
  c = SystemConfig::baseline();
  c.capacity_utilization = 0.0;
  expect_rejects(c, "util");
}

TEST(Analyzer, CodeRateAccountsForBothLevels) {
  const Analyzer analyzer(SystemConfig::baseline());
  // NIR FT2: (8-2)/8; RAID 5 FT2: 6/8 * 11/12; RAID 6 FT3: 5/8 * 10/12.
  EXPECT_DOUBLE_EQ(analyzer.code_rate({InternalScheme::kNone, 2}), 0.75);
  EXPECT_DOUBLE_EQ(analyzer.code_rate({InternalScheme::kRaid5, 2}),
                   0.75 * 11.0 / 12.0);
  EXPECT_DOUBLE_EQ(analyzer.code_rate({InternalScheme::kRaid6, 3}),
                   (5.0 / 8.0) * (10.0 / 12.0));
}

TEST(Analyzer, LogicalCapacityBaseline) {
  const Analyzer analyzer(SystemConfig::baseline());
  // 64 nodes * 12 drives * 300 GB * 75% utilization * 6/8 = 129.6 TB.
  const double expected = 64.0 * 12.0 * 3e11 * 0.75 * 0.75;
  EXPECT_DOUBLE_EQ(
      analyzer.logical_capacity({InternalScheme::kNone, 2}).value(), expected);
}

TEST(Analyzer, EventsNormalizationIsConsistent) {
  const Analyzer analyzer(SystemConfig::baseline());
  const auto result = analyzer.analyze({InternalScheme::kNone, 2});
  const double years = to_years(result.mttdl);
  EXPECT_NEAR(result.events_per_system_year, 1.0 / years, 1e-12 / years);
  const double pb = result.logical_capacity.value() / 1e15;
  EXPECT_NEAR(result.events_per_pb_year, result.events_per_system_year / pb,
              1e-9 * result.events_per_pb_year);
}

TEST(Analyzer, ExactAndClosedFormAgreeAtBaseline) {
  const Analyzer analyzer(SystemConfig::baseline());
  for (const auto& config : sensitivity_configurations()) {
    const double exact =
        analyzer.mttdl(config, Method::kExactChain).value();
    const double closed =
        analyzer.mttdl(config, Method::kClosedForm).value();
    EXPECT_NEAR(closed, exact, 0.06 * exact) << name(config);
  }
}

TEST(Analyzer, InternalRaidConfigsReportArrayRates) {
  const Analyzer analyzer(SystemConfig::baseline());
  const auto ir = analyzer.analyze({InternalScheme::kRaid5, 2});
  EXPECT_GT(ir.array_failure_rate.value(), 0.0);
  EXPECT_GT(ir.sector_error_rate.value(), 0.0);
  const auto nir = analyzer.analyze({InternalScheme::kNone, 2});
  EXPECT_DOUBLE_EQ(nir.array_failure_rate.value(), 0.0);
  EXPECT_DOUBLE_EQ(nir.sector_error_rate.value(), 0.0);
}

TEST(Analyzer, Raid5ArrayRatesMatchPaperAtBaseline) {
  const Analyzer analyzer(SystemConfig::baseline());
  const auto result = analyzer.analyze({InternalScheme::kRaid5, 2});
  const double mu = result.rebuild.restripe_rate.value();
  const double lambda = 1.0 / 300'000.0;
  EXPECT_NEAR(result.array_failure_rate.value(), 132.0 * lambda * lambda / mu,
              1e-12);
  EXPECT_NEAR(result.sector_error_rate.value(), 132.0 * lambda * 0.024,
              1e-12);
}

TEST(Analyzer, RejectsFaultToleranceAtOrAboveR) {
  const Analyzer analyzer(SystemConfig::baseline());
  EXPECT_THROW((void)analyzer.analyze({InternalScheme::kNone, 8}),
               ContractViolation);
  EXPECT_THROW((void)analyzer.analyze({InternalScheme::kNone, 0}),
               ContractViolation);
}

TEST(Analyzer, HigherNodeFaultToleranceIsMoreReliable) {
  const Analyzer analyzer(SystemConfig::baseline());
  for (const InternalScheme scheme :
       {InternalScheme::kNone, InternalScheme::kRaid5}) {
    double previous = 1e300;
    for (int ft = 1; ft <= 3; ++ft) {
      const double events =
          analyzer.events_per_pb_year({scheme, ft});
      EXPECT_LT(events, previous) << scheme_name(scheme) << " ft=" << ft;
      previous = events;
    }
  }
}

TEST(SystemConfig, SetParameterCoversEveryAdvertisedName) {
  // Every name in parameter_names() must be settable and must actually
  // change the configuration (guards the CLI/scenario mapping).
  for (const std::string& name : parameter_names()) {
    SystemConfig config = SystemConfig::baseline();
    ASSERT_TRUE(set_parameter(config, name, 11.0)) << name;
  }
  SystemConfig config = SystemConfig::baseline();
  EXPECT_FALSE(set_parameter(config, "wombats", 1.0));
}

TEST(SystemConfig, CheckNamesEveryParameterItRejects) {
  // NaN lies outside every parameter's domain, so each canonical name
  // must come back as the parameter check() names.
  for (const std::string& name : parameter_names()) {
    SystemConfig config = SystemConfig::baseline();
    ASSERT_TRUE(set_parameter(config, name, std::nan(""))) << name;
    const std::optional<Error> bad = check(config);
    ASSERT_TRUE(bad.has_value()) << name;
    EXPECT_EQ(bad->code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(bad->detail.rfind(name + " ", 0), 0u) << bad->detail;
  }
  // Finiteness is part of every positive domain.
  SystemConfig infinite = SystemConfig::baseline();
  ASSERT_TRUE(set_parameter(infinite, "link-gbps", HUGE_VAL));
  ASSERT_TRUE(check(infinite).has_value());
  EXPECT_EQ(check(infinite)->detail.rfind("link-gbps ", 0), 0u);
}

TEST(SystemConfig, SetParameterNeverConvertsAnUnrepresentableCount) {
  // Counts outside the int range are stored as 0 (no double->int
  // overflow), which check() rejects under the parameter's name.
  for (const double value : {1e12, -1e12, 3e9}) {
    SystemConfig config = SystemConfig::baseline();
    ASSERT_TRUE(set_parameter(config, "n", value));
    EXPECT_EQ(config.node_set_size, 0) << value;
    ASSERT_TRUE(check(config).has_value());
    EXPECT_EQ(check(config)->detail.rfind("n ", 0), 0u);
  }
  // In range, a count truncates toward zero, as sweeps rely on.
  SystemConfig config = SystemConfig::baseline();
  ASSERT_TRUE(set_parameter(config, "r", 12.7));
  EXPECT_EQ(config.redundancy_set_size, 12);
  EXPECT_TRUE(is_count_parameter("d"));
  EXPECT_FALSE(is_count_parameter("util"));
}

TEST(SystemConfig, SetParameterAppliesCorrectFields) {
  SystemConfig config = SystemConfig::baseline();
  ASSERT_TRUE(set_parameter(config, "n", 32.0));
  EXPECT_EQ(config.node_set_size, 32);
  ASSERT_TRUE(set_parameter(config, "drive-mttf", 1e5));
  EXPECT_DOUBLE_EQ(config.drive.mttf.value(), 1e5);
  ASSERT_TRUE(set_parameter(config, "her-exp", 15.0));
  EXPECT_NEAR(config.drive.her_per_byte, 8e-15, 1e-25);
  ASSERT_TRUE(set_parameter(config, "rebuild-kb", 64.0));
  EXPECT_DOUBLE_EQ(config.rebuild_command.value(), 65536.0);
  ASSERT_TRUE(set_parameter(config, "link-gbps", 3.0));
  EXPECT_DOUBLE_EQ(config.link.raw_speed.value(), 3e9);
  ASSERT_TRUE(set_parameter(config, "util", 0.6));
  EXPECT_DOUBLE_EQ(config.capacity_utilization, 0.6);
}

TEST(Target, PaperTargetValue) {
  EXPECT_DOUBLE_EQ(ReliabilityTarget::paper().events_per_pb_year, 2e-3);
  EXPECT_TRUE(ReliabilityTarget::paper().met_by(1e-4));
  EXPECT_FALSE(ReliabilityTarget::paper().met_by(1e-2));
}

TEST(Analyzer, GeneralFaultToleranceBeyondThreeWorksForNir) {
  // The recursive construction supports arbitrary k; FT4 on a bigger
  // redundancy set should beat FT3.
  SystemConfig c = SystemConfig::baseline();
  c.redundancy_set_size = 10;
  const Analyzer analyzer(c);
  const double ft3 = analyzer.events_per_pb_year({InternalScheme::kNone, 3});
  const double ft4 = analyzer.events_per_pb_year({InternalScheme::kNone, 4});
  EXPECT_LT(ft4, ft3);
}

TEST(Analyzer, TryAnalyzeMatchesAnalyzeBitwiseOnTheBaseline) {
  const Analyzer analyzer(SystemConfig::baseline());
  const Configuration config{InternalScheme::kRaid5, 2};
  const auto outcome = analyzer.try_analyze(config);
  ASSERT_TRUE(outcome.has_value()) << outcome.error().message();
  const AnalysisResult direct = analyzer.analyze(config);
  EXPECT_EQ(outcome.value().mttdl.value(), direct.mttdl.value());
  EXPECT_EQ(outcome.value().events_per_pb_year, direct.events_per_pb_year);
}

TEST(Analyzer, TryAnalyzeReportsOutOfRangeFaultToleranceAsInvalidParameter) {
  // The no-throw twin of RejectsFaultToleranceAtOrAboveR: the same caller
  // mistakes surface as typed errors instead of contract violations.
  const Analyzer analyzer(SystemConfig::baseline());
  for (const int ft : {0, 8, 9}) {
    const auto outcome = analyzer.try_analyze({InternalScheme::kNone, ft});
    ASSERT_FALSE(outcome.has_value()) << "ft=" << ft;
    EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(outcome.error().layer, "core.analyzer");
  }
}

TEST(Analyzer, TryBuildChainSharesTheFaultToleranceCheck) {
  const Analyzer analyzer(SystemConfig::baseline());
  for (const Configuration config :
       {Configuration{InternalScheme::kNone, 0},
        Configuration{InternalScheme::kNone, 8},
        Configuration{InternalScheme::kRaid5, 8}}) {
    const auto built = analyzer.try_build_chain(config);
    ASSERT_FALSE(built.has_value()) << name(config);
    const auto analyzed = analyzer.try_analyze(config);
    ASSERT_FALSE(analyzed.has_value());
    EXPECT_EQ(built.error().code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(built.error().message(), analyzed.error().message());
  }
  const auto built = analyzer.try_build_chain({InternalScheme::kNone, 2});
  ASSERT_TRUE(built.has_value()) << built.error().message();
  EXPECT_EQ(built.value().chain.state_count(), 8u);
  EXPECT_EQ(built.value().healthy, 1u);
}

TEST(Analyzer, TryAnalyzeRejectsFaultToleranceAboveTheNirCap) {
  // Without internal RAID the chain has 2^(k+1) states; the analyzer
  // refuses k > 16 with a typed error instead of letting the model
  // constructor trip a contract violation deep in the solve stack. A
  // larger redundancy set keeps the ft < R check out of the way.
  SystemConfig c = SystemConfig::baseline();
  c.redundancy_set_size = 32;
  const Analyzer analyzer(c);
  const auto outcome = analyzer.try_analyze({InternalScheme::kNone, 17});
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidParameter);
  EXPECT_EQ(outcome.error().layer, "core.analyzer");
  EXPECT_NE(outcome.error().detail.find("above 16"), std::string::npos)
      << outcome.error().detail;
  // Up to the cap the analyzer accepts and solves the labelled chain:
  // k = 16 is a 131072-state chain, assembled in linear time.
  for (const int ft : {12, 16}) {
    const auto solved = analyzer.try_analyze({InternalScheme::kNone, ft});
    EXPECT_TRUE(solved.has_value()) << solved.error().message();
  }
}

TEST(Analyzer, TryAnalyzeFlagsDegenerateSweepEndpointsWithoutThrowing) {
  // A drive MTTF of 1e-308 hours passes basic validation (it is positive
  // and finite) but produces failure rates so large that the absorbing
  // chain degenerates. The solve must come back as a typed error, never
  // an uncaught exception, and the throwing form must raise the same
  // error as an ErrorException.
  SystemConfig c = SystemConfig::baseline();
  ASSERT_TRUE(set_parameter(c, "drive-mttf", 1e-308));
  const Analyzer analyzer(c);
  const Configuration config{InternalScheme::kRaid5, 2};
  const auto outcome = analyzer.try_analyze(config);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kSingularGenerator);
  try {
    (void)analyzer.analyze(config);
    FAIL() << "analyze() must throw on a degenerate chain";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.error().code, outcome.error().code);
    EXPECT_EQ(e.error().detail, outcome.error().detail);
  }
}

TEST(SolveCache, CachesErrorsLikeValues) {
  SolveCache cache;
  EXPECT_FALSE(cache.lookup("k").has_value());  // miss
  cache.store("k", Error{ErrorCode::kSingularGenerator, "test", "boom"});
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  ASSERT_FALSE(hit->has_value());
  EXPECT_EQ(hit->error().code, ErrorCode::kSingularGenerator);
  EXPECT_EQ(hit->error().detail, "boom");
  // A later store of the same key keeps the first entry.
  cache.store("k", Expected<double>{1.0});
  ASSERT_FALSE(cache.lookup("k")->has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ReplaysCachedErrorsAcrossAnalyses) {
  // A shared cache must replay a failed solve on the second analysis
  // instead of re-running it: same typed error, one more hit, no new
  // miss.
  SystemConfig c = SystemConfig::baseline();
  ASSERT_TRUE(set_parameter(c, "drive-mttf", 1e-308));
  const Analyzer analyzer(c);
  const Configuration config{InternalScheme::kNone, 2};
  SolveCache cache;
  const auto first = analyzer.try_analyze(config, Method::kExactChain, &cache);
  ASSERT_FALSE(first.has_value());
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u);
  const auto second = analyzer.try_analyze(config, Method::kExactChain, &cache);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, first.error().code);
  EXPECT_EQ(second.error().layer, first.error().layer);
  EXPECT_EQ(second.error().detail, first.error().detail);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace nsrel::core
