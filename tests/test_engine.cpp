// Tests for the grid-evaluation engine: grid construction, parallel
// jobs-invariance, solve-cache correctness, and the renderers.
#include <cstddef>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "engine/testing.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::engine {
namespace {

const std::vector<core::Configuration> kMixedConfigurations = {
    {core::InternalScheme::kNone, 2}, {core::InternalScheme::kRaid5, 2}};

Grid small_sweep() {
  return parameter_sweep(core::SystemConfig::baseline(), "drive-mttf",
                         spaced_points(100e3, 750e3, 5, true),
                         kMixedConfigurations);
}

std::string to_json(const ResultSet& results) {
  std::ostringstream out;
  write_json(results, out);
  return out.str();
}

TEST(SpacedPoints, LogAndLinearSpacing) {
  const auto log_pts = spaced_points(1.0, 100.0, 3, true);
  ASSERT_EQ(log_pts.size(), 3u);
  EXPECT_DOUBLE_EQ(log_pts[0], 1.0);
  EXPECT_DOUBLE_EQ(log_pts[1], 10.0);
  EXPECT_DOUBLE_EQ(log_pts[2], 100.0);

  const auto lin_pts = spaced_points(0.0, 10.0, 5, false);
  ASSERT_EQ(lin_pts.size(), 5u);
  EXPECT_DOUBLE_EQ(lin_pts[1], 2.5);
  EXPECT_DOUBLE_EQ(lin_pts[4], 10.0);
}

TEST(SpacedPoints, RejectsBadRanges) {
  EXPECT_THROW((void)spaced_points(1.0, 2.0, 1, false), ContractViolation);
  EXPECT_THROW((void)spaced_points(0.0, 2.0, 3, true), ContractViolation);
  EXPECT_THROW((void)spaced_points(5.0, 2.0, 3, true), ContractViolation);
}

TEST(GridBuilders, ParameterSweepUsesCanonicalNames) {
  const Grid grid = parameter_sweep(core::SystemConfig::baseline(), "util",
                                    {0.5, 0.9}, kMixedConfigurations);
  ASSERT_EQ(grid.axes.size(), 1u);
  EXPECT_EQ(grid.axes[0].name, "util");
  EXPECT_EQ(grid.axis_header(), "util");
  ASSERT_EQ(grid.points.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.points[0].system.capacity_utilization, 0.5);
  EXPECT_DOUBLE_EQ(grid.points[1].system.capacity_utilization, 0.9);
  EXPECT_THROW((void)parameter_sweep(core::SystemConfig::baseline(),
                                     "wombats", {1.0}, kMixedConfigurations),
               ContractViolation);
}

TEST(GridBuilders, OutOfDomainPointsAreTheirOwnCellErrors) {
  // The builders do not check points; evaluate() checks each one before
  // its Analyzer exists, so only the bad point's cells fail.
  const Grid grid = parameter_sweep(core::SystemConfig::baseline(), "util",
                                    {0.5, 2.0}, kMixedConfigurations);
  const ResultSet results = evaluate(grid, {.on_error = OnError::kSkip});
  EXPECT_TRUE(results.ok(0, 0));
  EXPECT_TRUE(results.ok(0, 1));
  const std::vector<CellError> failures = results.errors();
  ASSERT_EQ(failures.size(), 2u);
  for (const CellError& failure : failures) {
    EXPECT_EQ(failure.point, 1u);
    EXPECT_EQ(failure.error.code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(failure.error.detail, "util must be in (0, 1]");
  }
}

TEST(GridBuilders, SinglePointHasNoAxis) {
  const Grid grid =
      single_point(core::SystemConfig::baseline(), kMixedConfigurations);
  EXPECT_FALSE(grid.has_axis());
  ASSERT_EQ(grid.points.size(), 1u);
  EXPECT_EQ(grid.points[0].label, "events/PB-yr");
}

TEST(Evaluate, MatchesDirectAnalyzerCalls) {
  const Grid grid = small_sweep();
  const ResultSet results = evaluate(grid);
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    const core::Analyzer analyzer(grid.points[p].system);
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      const auto direct = analyzer.analyze(grid.configurations[c]);
      EXPECT_EQ(results.at(p, c).mttdl.value(), direct.mttdl.value());
      EXPECT_EQ(results.at(p, c).events_per_pb_year,
                direct.events_per_pb_year);
    }
  }
}

TEST(Evaluate, JobsInvariantToTheByte) {
  const Grid grid = small_sweep();
  const std::string serial = to_json(evaluate(grid, {.jobs = 1}));
  const std::string two = to_json(evaluate(grid, {.jobs = 2}));
  const std::string eight = to_json(evaluate(grid, {.jobs = 8}));
  const std::string all = to_json(evaluate(grid, {.jobs = 0}));
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  EXPECT_EQ(serial, all);
}

TEST(Evaluate, SharedCacheSecondRunIsAllHitsAndBitwiseEqual) {
  const Grid grid = small_sweep();
  core::SolveCache cache;
  const ResultSet first = evaluate(grid, {.jobs = 1, .cache = &cache});
  const auto after_first = first.cache_stats();
  const ResultSet second = evaluate(grid, {.jobs = 1, .cache = &cache});
  const auto after_second = second.cache_stats();

  // Every solve of the second run hit the cache.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.hits - after_first.hits,
            after_second.lookups() - after_first.lookups());

  // And hits reproduce the fresh solves exactly, bit for bit.
  for (std::size_t p = 0; p < first.point_count(); ++p) {
    for (std::size_t c = 0; c < first.configuration_count(); ++c) {
      EXPECT_EQ(first.at(p, c).mttdl.value(), second.at(p, c).mttdl.value());
      EXPECT_EQ(first.at(p, c).events_per_pb_year,
                second.at(p, c).events_per_pb_year);
    }
  }
}

TEST(Evaluate, RestripeSweepDedupesUnchangedNirModel) {
  // restripe-kb is not a NoInternalRaidParams input, so every point of a
  // no-internal-RAID sweep shares one Markov model: 1 solve, N-1 hits.
  const Grid grid = parameter_sweep(core::SystemConfig::baseline(),
                                    "restripe-kb",
                                    spaced_points(64.0, 4096.0, 8, true),
                                    {{core::InternalScheme::kNone, 2}});
  const ResultSet results = evaluate(grid, {.jobs = 1});
  EXPECT_EQ(results.cache_stats().misses, 1u);
  EXPECT_EQ(results.cache_stats().hits, 7u);
}

TEST(Evaluate, CacheIsKeyedOnMethod) {
  Grid grid = single_point(core::SystemConfig::baseline(),
                           {{core::InternalScheme::kNone, 2}});
  core::SolveCache cache;
  (void)evaluate(grid, {.cache = &cache});
  grid.method = core::Method::kClosedForm;
  const ResultSet closed = evaluate(grid, {.cache = &cache});
  // The closed form must not be served the exact chain's cached solve.
  EXPECT_EQ(closed.cache_stats().misses, 2u);
}

TEST(Render, EventsTableShape) {
  const ResultSet results = evaluate(
      single_point(core::SystemConfig::baseline(), kMixedConfigurations));
  const core::ReliabilityTarget target = core::ReliabilityTarget::paper();
  std::ostringstream csv;
  events_table(results, nullptr).print_csv(csv);
  // Configuration names contain commas, so the CSV header quotes them.
  EXPECT_NE(csv.str().find("metric,\"FT2, No Internal RAID\""),
            std::string::npos);
  EXPECT_EQ(csv.str().find('*'), std::string::npos);
  // The marked variant tags cells meeting the target.
  const std::string marked = events_table(results, &target).to_string();
  EXPECT_NE(marked.find(" *"), std::string::npos);
}

TEST(Render, SweepTableMatchesLegacyCliShape) {
  const ResultSet results =
      evaluate(parameter_sweep(core::SystemConfig::baseline(), "drive-mttf",
                               spaced_points(100e3, 750e3, 3, true),
                               {{core::InternalScheme::kRaid5, 2}}));
  std::ostringstream csv;
  sweep_table(results).print_csv(csv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "drive-mttf,MTTDL (h),events/PB-yr");
  // Multi-configuration sweeps qualify the value columns.
  const ResultSet multi =
      evaluate(parameter_sweep(core::SystemConfig::baseline(), "drive-mttf",
                               spaced_points(100e3, 750e3, 3, true),
                               kMixedConfigurations));
  std::ostringstream multi_csv;
  sweep_table(multi).print_csv(multi_csv);
  EXPECT_NE(multi_csv.str().find("FT2, Internal RAID 5 MTTDL (h)"),
            std::string::npos);
}

TEST(Render, CompareTableListsConfigurations) {
  const ResultSet results = evaluate(
      single_point(core::SystemConfig::baseline(), kMixedConfigurations));
  const report::Table table =
      compare_table(results, core::ReliabilityTarget::paper());
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("configuration,MTTDL,events/PB-yr,meets"),
            std::string::npos);
}

TEST(Render, JsonRoundTripsNumbersExactly) {
  const ResultSet results = evaluate(small_sweep());
  const std::string json = to_json(results);
  // Pull every mttdl_hours value back out and compare bitwise against
  // the cells (shortest-round-trip formatting must lose nothing).
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      const std::size_t at = json.find("\"mttdl_hours\": ", cursor);
      ASSERT_NE(at, std::string::npos);
      cursor = at + std::string("\"mttdl_hours\": ").size();
      EXPECT_EQ(std::strtod(json.c_str() + cursor, nullptr),
                results.at(p, c).mttdl.value());
    }
  }
  // Internal-RAID cells expose the array rates; NIR cells omit them.
  EXPECT_NE(json.find("\"array_failure_per_hour\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"drive-mttf\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Cartesian grids: several named axes, flattened row-major with the
// last axis fastest; a single axis degenerates to the legacy shape.

TEST(CartesianGrid, FlattensRowMajorLastAxisFastest) {
  std::vector<AxisSpec> axes(2);
  axes[0].parameter = "drive-mttf";
  axes[0].values = {100e3, 500e3};
  axes[1].parameter = "link-gbps";
  axes[1].values = {1.0, 4.0, 10.0};
  const Grid grid = cartesian_sweep(core::SystemConfig::baseline(), axes,
                                    kMixedConfigurations);
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axis_header(), "drive-mttf x link-gbps");
  ASSERT_EQ(grid.points.size(), 6u);
  // Row-major: point index = outer * 3 + inner.
  for (std::size_t p = 0; p < 6; ++p) {
    ASSERT_EQ(grid.points[p].coords.size(), 2u);
    EXPECT_DOUBLE_EQ(grid.points[p].coords[0], axes[0].values[p / 3]);
    EXPECT_DOUBLE_EQ(grid.points[p].coords[1], axes[1].values[p % 3]);
    EXPECT_DOUBLE_EQ(grid.points[p].system.drive.mttf.value(),
                     axes[0].values[p / 3]);
  }
  // Labels join per-axis labels with " x ".
  EXPECT_NE(grid.points[0].label.find(" x "), std::string::npos);
}

TEST(CartesianGrid, RejectsUnknownParameterAndEmptyAxes) {
  std::vector<AxisSpec> axes(1);
  axes[0].parameter = "wombats";
  axes[0].values = {1.0};
  EXPECT_THROW((void)cartesian_sweep(core::SystemConfig::baseline(), axes,
                                     kMixedConfigurations),
               ContractViolation);
  EXPECT_THROW((void)cartesian_sweep(core::SystemConfig::baseline(), {},
                                     kMixedConfigurations),
               ContractViolation);
}

TEST(CartesianGrid, SingleAxisMatchesLegacySweepByte) {
  // The 1-axis cartesian grid must be indistinguishable from the old
  // single-axis builder: same points, same labels, same rendered bytes.
  std::vector<AxisSpec> axes(1);
  axes[0].parameter = "drive-mttf";
  axes[0].values = spaced_points(100e3, 750e3, 5, true);
  const Grid cartesian = cartesian_sweep(core::SystemConfig::baseline(), axes,
                                         kMixedConfigurations);
  const Grid legacy = small_sweep();
  ASSERT_EQ(cartesian.points.size(), legacy.points.size());
  for (std::size_t p = 0; p < legacy.points.size(); ++p) {
    EXPECT_EQ(cartesian.points[p].label, legacy.points[p].label);
  }
  EXPECT_EQ(to_json(evaluate(cartesian)), to_json(evaluate(legacy)));
}

TEST(CartesianGrid, ThreeAxisRenderersCarryJoinedHeader) {
  std::vector<AxisSpec> axes(3);
  axes[0].parameter = "drive-mttf";
  axes[0].values = {100e3, 500e3};
  axes[1].parameter = "link-gbps";
  axes[1].values = {1.0, 10.0};
  axes[2].parameter = "util";
  axes[2].values = {0.5, 0.9};
  const Grid grid = cartesian_sweep(core::SystemConfig::baseline(), axes,
                                    {{core::InternalScheme::kNone, 2}});
  ASSERT_EQ(grid.points.size(), 8u);
  const ResultSet results = evaluate(grid);
  std::ostringstream csv;
  sweep_table(results).print_csv(csv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "drive-mttf x link-gbps x util,MTTDL (h),events/PB-yr");
  std::ostringstream table;
  events_table(results, nullptr).print(table);
  EXPECT_NE(table.str().find("drive-mttf x link-gbps x util"),
            std::string::npos);
  // First and last odometer rows carry the full 3-coordinate label.
  std::ostringstream json;
  write_json(results, json);
  EXPECT_NE(json.str().find("\"1.000e+05 x 1.000e+00 x 5.000e-01\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"5.000e+05 x 1.000e+01 x 9.000e-01\""),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Simulation grids: Monte-Carlo cells ride the same engine fan-out.

TEST(SimulationGrid, SingleCellMatchesDirectSimulateCall) {
  Grid grid = single_point(core::SystemConfig::baseline(),
                           {{core::InternalScheme::kNone, 2}});
  SimSpec spec;
  spec.trials = 64;
  spec.seed = 1234;
  grid.simulation = spec;
  const ResultSet results = evaluate(grid);
  ASSERT_TRUE(results.is_sim(0, 0));
  const sim::SimEstimate& cell = results.sim_at(0, 0);
  // cell_seed(seed, 0) == seed, so the first cell reproduces a direct
  // analyzer call with the user's seed bit-for-bit.
  EXPECT_EQ(cell.seed, 1234u);
  const core::Analyzer analyzer(grid.points[0].system);
  const sim::MttdlEstimate direct =
      analyzer.simulate_mttdl(grid.configurations[0], 64, 1234);
  EXPECT_EQ(cell.estimate.mean_hours, direct.mean_hours);
  EXPECT_EQ(cell.estimate.stddev_hours, direct.stddev_hours);
  EXPECT_EQ(cell.estimate.trials, direct.trials);
}

TEST(SimulationGrid, SweepIsJobsInvariantToTheByte) {
  Grid grid = parameter_sweep(core::SystemConfig::baseline(), "drive-mttf",
                              spaced_points(100e3, 750e3, 3, true),
                              kMixedConfigurations);
  SimSpec spec;
  spec.trials = 48;
  spec.seed = 99;
  grid.simulation = spec;
  const std::string serial = to_json(evaluate(grid, {.jobs = 1}));
  const std::string eight = to_json(evaluate(grid, {.jobs = 8}));
  EXPECT_EQ(serial, eight);
  EXPECT_NE(serial.find("\"kind\": \"sim\""), std::string::npos);
  EXPECT_NE(serial.find("\"trials\": 48"), std::string::npos);
}

TEST(SimulationGrid, CellWhereNoTrialSawALossIsATypedNonFiniteError) {
  // Two trials per cell at baseline rates: some cells see no loss at
  // all. Those cells carry non_finite_result (no inf, no null MTTDL);
  // the others hold estimates, and the document is jobs-invariant.
  Grid grid = parameter_sweep(core::SystemConfig::baseline(), "drive-mttf",
                              spaced_points(100e3, 750e3, 6, true),
                              {{core::InternalScheme::kRaid5, 3}});
  SimSpec spec;
  spec.trials = 2;
  spec.seed = 2;
  grid.simulation = spec;
  const ResultSet results =
      evaluate(grid, {.jobs = 1, .on_error = OnError::kSkip});
  const std::vector<CellError> errors = results.errors();
  ASSERT_FALSE(errors.empty());
  ASSERT_LT(errors.size(), results.point_count());
  for (const CellError& e : errors) {
    EXPECT_EQ(e.error.code, ErrorCode::kNonFiniteResult);
    EXPECT_EQ(e.error.layer, "sim.estimate");
  }
  const std::string serial = to_json(results);
  EXPECT_NE(serial.find("\"non_finite_result\""), std::string::npos);
  EXPECT_EQ(serial.find("inf"), std::string::npos);
  EXPECT_EQ(serial,
            to_json(evaluate(grid, {.jobs = 4, .on_error = OnError::kSkip})));
}

TEST(SimulationGrid, CellSeedsAreDistinctAndStable) {
  EXPECT_EQ(cell_seed(42, 0), 42u);
  const std::uint64_t second = cell_seed(42, 1);
  EXPECT_NE(second, 42u);
  EXPECT_EQ(second, cell_seed(42, 1));  // pure function of (seed, index)
  EXPECT_NE(cell_seed(42, 1), cell_seed(42, 2));
  EXPECT_NE(cell_seed(42, 1), cell_seed(43, 1));
}

TEST(SimulationGrid, AnalyticAccessorRefusesSimCells) {
  Grid grid = single_point(core::SystemConfig::baseline(),
                           {{core::InternalScheme::kNone, 2}});
  SimSpec tiny;
  tiny.trials = 16;
  tiny.seed = 7;
  grid.simulation = tiny;
  const ResultSet results = evaluate(grid);
  EXPECT_TRUE(results.ok(0, 0));
  EXPECT_THROW((void)results.at(0, 0), ContractViolation);
  const ResultSet analytic = evaluate(single_point(
      core::SystemConfig::baseline(), {{core::InternalScheme::kNone, 2}}));
  EXPECT_FALSE(analytic.is_sim(0, 0));
  EXPECT_THROW((void)analytic.sim_at(0, 0), ContractViolation);
}

// ---------------------------------------------------------------------
// Fault isolation: injected faults land in their own cells, surviving
// cells still evaluate, and everything — recorded errors, rendered
// bytes, thrown exceptions — is identical at any jobs count.

class FaultIsolation : public ::testing::Test {
 protected:
  void SetUp() override { testing::clear_cell_faults(); }
  void TearDown() override { testing::clear_cell_faults(); }
};

TEST_F(FaultIsolation, EveryErrorClassLandsInItsOwnCell) {
  // 5 points x 2 configurations; one fault of each class in six
  // distinct cells, four cells left healthy.
  const Grid grid = small_sweep();
  const ErrorCode codes[] = {
      ErrorCode::kSingularGenerator, ErrorCode::kIllConditioned,
      ErrorCode::kNonFiniteResult,   ErrorCode::kInvalidParameter,
      ErrorCode::kContractViolation, ErrorCode::kInternal};
  for (std::size_t i = 0; i < 6; ++i) {
    testing::inject_cell_fault(i % 5, i / 5 == 0 ? 0 : 1, codes[i]);
  }

  const ResultSet results =
      evaluate(grid, {.jobs = 1, .on_error = OnError::kSkip});
  EXPECT_EQ(results.ok_count(), 4u);
  const std::vector<CellError> failures = results.errors();
  ASSERT_EQ(failures.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t point = i % 5;
    const std::size_t configuration = i / 5 == 0 ? 0 : 1;
    EXPECT_FALSE(results.ok(point, configuration));
    EXPECT_EQ(results.cell(point, configuration).error().code, codes[i]);
  }
  // Healthy cells match a fault-free run exactly.
  testing::clear_cell_faults();
  const ResultSet clean = evaluate(grid, {.jobs = 1});
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      if (!results.ok(p, c)) continue;
      EXPECT_EQ(results.at(p, c).mttdl.value(), clean.at(p, c).mttdl.value());
    }
  }
}

TEST_F(FaultIsolation, NoWorkerExceptionIsEverLost) {
  // Regression for the parallel path's old `future.get()` behavior,
  // where only the first worker's exception survived: with several
  // failing cells, every one must be reported, identically at --jobs 1
  // and --jobs 8.
  const Grid grid = small_sweep();
  testing::inject_cell_fault(0, 1, ErrorCode::kSingularGenerator);
  testing::inject_cell_fault(2, 0, ErrorCode::kNonFiniteResult);
  testing::inject_cell_fault(4, 1, ErrorCode::kInternal);

  const ResultSet serial =
      evaluate(grid, {.jobs = 1, .on_error = OnError::kSkip});
  const ResultSet parallel =
      evaluate(grid, {.jobs = 8, .on_error = OnError::kSkip});
  const std::vector<CellError> serial_errors = serial.errors();
  const std::vector<CellError> parallel_errors = parallel.errors();
  ASSERT_EQ(serial_errors.size(), 3u);
  ASSERT_EQ(parallel_errors.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial_errors[i].point, parallel_errors[i].point);
    EXPECT_EQ(serial_errors[i].configuration,
              parallel_errors[i].configuration);
    EXPECT_EQ(serial_errors[i].error.message(),
              parallel_errors[i].error.message());
  }
}

TEST_F(FaultIsolation, RenderedOutputWithFailuresIsJobsInvariant) {
  const Grid grid = small_sweep();
  testing::inject_cell_fault(1, 0, ErrorCode::kIllConditioned);
  testing::inject_cell_fault(3, 1, ErrorCode::kInvalidParameter);

  const auto render_all = [](const ResultSet& results) {
    std::ostringstream text;
    events_table(results, nullptr).print(text);
    sweep_table(results).print_csv(text);
    write_json(results, text);
    return text.str();
  };
  const std::string serial =
      render_all(evaluate(grid, {.jobs = 1, .on_error = OnError::kSkip}));
  const std::string two =
      render_all(evaluate(grid, {.jobs = 2, .on_error = OnError::kSkip}));
  const std::string eight =
      render_all(evaluate(grid, {.jobs = 8, .on_error = OnError::kSkip}));
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  // The failed cells are marked with their stable codes...
  EXPECT_NE(serial.find("!ill_conditioned"), std::string::npos);
  EXPECT_NE(serial.find("!invalid_parameter"), std::string::npos);
  // ...and the JSON carries structured error records under schema v3.
  EXPECT_NE(serial.find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"code\": \"ill_conditioned\""), std::string::npos);
  EXPECT_NE(serial.find("\"error\": null"), std::string::npos);
}

TEST_F(FaultIsolation, FailFastThrowsTheLowestIndexedFailureAtAnyJobs) {
  const Grid grid = small_sweep();
  testing::inject_cell_fault(1, 1, ErrorCode::kSingularGenerator);  // cell 3
  testing::inject_cell_fault(3, 0, ErrorCode::kNonFiniteResult);    // cell 6

  const auto thrown_message = [&](int jobs) {
    try {
      (void)evaluate(grid, {.jobs = jobs, .on_error = OnError::kFailFast});
    } catch (const ErrorException& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string serial = thrown_message(1);
  EXPECT_NE(serial.find("singular_generator"), std::string::npos);
  EXPECT_NE(serial.find("point 1, configuration 1"), std::string::npos);
  EXPECT_EQ(serial, thrown_message(2));
  EXPECT_EQ(serial, thrown_message(8));
}

TEST_F(FaultIsolation, AbortEvaluatesEverythingThenThrowsTheSameError) {
  const Grid grid = small_sweep();
  testing::inject_cell_fault(1, 1, ErrorCode::kSingularGenerator);
  testing::inject_cell_fault(3, 0, ErrorCode::kNonFiniteResult);

  const auto thrown_code = [&](OnError policy) {
    try {
      (void)evaluate(grid, {.jobs = 4, .on_error = policy});
    } catch (const ErrorException& e) {
      return e.error().code;
    }
    return ErrorCode::kInternal;
  };
  EXPECT_EQ(thrown_code(OnError::kAbort), ErrorCode::kSingularGenerator);
  EXPECT_EQ(thrown_code(OnError::kFailFast), ErrorCode::kSingularGenerator);
  // The engine's default is fail-fast: exception semantics preserved.
  EXPECT_THROW((void)evaluate(grid, {.jobs = 1}), ErrorException);
}

TEST_F(FaultIsolation, ParsePolicyNames) {
  EXPECT_EQ(parse_on_error("skip"), OnError::kSkip);
  EXPECT_EQ(parse_on_error("fail"), OnError::kFailFast);
  EXPECT_THROW((void)parse_on_error("explode"), ContractViolation);
}

}  // namespace
}  // namespace nsrel::engine
