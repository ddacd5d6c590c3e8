// Tests for the nsrel-resultset-v3 document layer: byte-exact
// write/read/write round-trips over analytic, simulation, failed-cell
// and cache-meta documents; strict typed errors on malformed or drifted
// schemas; and the diff engine behind `nsrel diff`.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "engine/testing.hpp"
#include "report/diff.hpp"
#include "report/json_parse.hpp"
#include "report/resultset_doc.hpp"
#include "util/error.hpp"

namespace nsrel::report {
namespace {

const std::vector<core::Configuration> kMixedConfigurations = {
    {core::InternalScheme::kNone, 2}, {core::InternalScheme::kRaid5, 2}};

std::string serialize(const ResultSetDoc& doc) {
  std::ostringstream out;
  write_resultset_json(doc, out);
  return out.str();
}

/// Evaluates `grid` and returns its canonical v3 bytes.
std::string document_bytes(const engine::Grid& grid,
                           const engine::JsonOptions& options = {}) {
  const engine::ResultSet results =
      engine::evaluate(grid, {.jobs = 1, .on_error = engine::OnError::kSkip});
  return serialize(engine::make_document(results, options));
}

/// write -> read -> write must reproduce the bytes exactly.
void expect_round_trip(const std::string& bytes) {
  const Expected<ResultSetDoc> reread = read_resultset_json(bytes);
  ASSERT_TRUE(reread.has_value()) << reread.error().message();
  EXPECT_EQ(serialize(reread.value()), bytes);
}

engine::Grid two_axis_grid() {
  std::vector<engine::AxisSpec> axes(2);
  axes[0].parameter = "drive-mttf";
  axes[0].values = {100e3, 500e3};
  axes[1].parameter = "link-gbps";
  axes[1].values = {1.0, 10.0};
  return engine::cartesian_sweep(core::SystemConfig::baseline(), axes,
                                 kMixedConfigurations);
}

// --- Round trips ------------------------------------------------------

TEST(RoundTrip, AnalyticTwoAxisDocument) {
  const std::string bytes = document_bytes(two_axis_grid());
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  ASSERT_EQ(doc.axes.size(), 2u);
  EXPECT_EQ(doc.axes[0].name, "drive-mttf");
  EXPECT_EQ(doc.axes[1].name, "link-gbps");
  ASSERT_EQ(doc.points.size(), 4u);
  EXPECT_EQ(doc.points[0].x.size(), 2u);
  ASSERT_EQ(doc.cells.size(), 8u);
  EXPECT_TRUE(std::holds_alternative<AnalyticCellDoc>(doc.cells[0].data));
}

TEST(RoundTrip, SinglePointDocumentHasNoAxes) {
  const std::string bytes = document_bytes(engine::single_point(
      core::SystemConfig::baseline(), kMixedConfigurations));
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  EXPECT_TRUE(doc.axes.empty());
  ASSERT_EQ(doc.points.size(), 1u);
  EXPECT_TRUE(doc.points[0].x.empty());
}

TEST(RoundTrip, SimulationDocument) {
  engine::Grid grid = two_axis_grid();
  engine::SimSpec spec;
  spec.trials = 32;
  spec.seed = 7;
  grid.simulation = spec;
  const std::string bytes = document_bytes(grid);
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  ASSERT_TRUE(std::holds_alternative<SimCellDoc>(doc.cells[0].data));
  const SimCellDoc& cell = std::get<SimCellDoc>(doc.cells[0].data);
  EXPECT_EQ(cell.trials, 32);
  EXPECT_EQ(cell.seed, 7u);  // cell_seed(seed, 0) == seed
}

TEST(RoundTrip, ExtremeSeedDigitsSurviveExactly) {
  // Seeds are uint64 and must round-trip as exact digit strings, not
  // through double (2^64 - 1 is not representable in a double).
  engine::Grid grid = engine::single_point(core::SystemConfig::baseline(),
                                           {kMixedConfigurations[0]});
  engine::SimSpec spec;
  spec.trials = 8;
  spec.seed = 18446744073709551615ULL;
  grid.simulation = spec;
  const std::string bytes = document_bytes(grid);
  EXPECT_NE(bytes.find("\"seed\": 18446744073709551615"), std::string::npos);
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  EXPECT_EQ(std::get<SimCellDoc>(doc.cells[0].data).seed,
            18446744073709551615ULL);
}

TEST(RoundTrip, FailedCellsCarryTypedErrors) {
  engine::testing::clear_cell_faults();
  engine::testing::inject_cell_fault(0, 1, ErrorCode::kSingularGenerator);
  engine::testing::inject_cell_fault(2, 0, ErrorCode::kIllConditioned);
  const std::string bytes =
      document_bytes(engine::parameter_sweep(core::SystemConfig::baseline(),
                                             "drive-mttf",
                                             {100e3, 300e3, 500e3},
                                             kMixedConfigurations));
  engine::testing::clear_cell_faults();
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  ASSERT_EQ(doc.cells.size(), 6u);
  EXPECT_FALSE(doc.cells[1].ok());
  EXPECT_EQ(std::get<ErrorCellDoc>(doc.cells[1].data).code,
            "singular_generator");
  EXPECT_FALSE(doc.cells[4].ok());
  EXPECT_EQ(std::get<ErrorCellDoc>(doc.cells[4].data).code,
            "ill_conditioned");
  EXPECT_TRUE(doc.cells[0].ok());
}

TEST(RoundTrip, CacheMetaDocument) {
  const std::string bytes =
      document_bytes(two_axis_grid(), {.cache_meta = true});
  EXPECT_NE(bytes.find("\"meta\""), std::string::npos);
  expect_round_trip(bytes);
  const ResultSetDoc doc = read_resultset_json(bytes).value();
  ASSERT_TRUE(doc.cache.has_value());
  EXPECT_EQ(doc.cache->lookups, doc.cache->hits + doc.cache->misses);
}

// --- Malformed documents ----------------------------------------------

/// Reads must fail with the typed kMalformedDocument error; returns the
/// message so callers can pin the complaint.
std::string expect_malformed(const std::string& text) {
  const Expected<ResultSetDoc> result = read_resultset_json(text);
  EXPECT_FALSE(result.has_value());
  if (result.has_value()) return std::string();
  EXPECT_EQ(result.error().code, ErrorCode::kMalformedDocument);
  return result.error().message();
}

/// A valid document to mutate, plus string surgery helpers.
std::string valid_document() {
  return document_bytes(engine::single_point(core::SystemConfig::baseline(),
                                             {kMixedConfigurations[0]}));
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(Malformed, RejectsNonJson) {
  EXPECT_NE(expect_malformed("not json at all").find("malformed_document"),
            std::string::npos);
  (void)expect_malformed("");
  (void)expect_malformed("{\"schema\": ");  // truncated
}

TEST(Malformed, RejectsTrailingContent) {
  (void)expect_malformed(valid_document() + "{}");
}

TEST(Malformed, RejectsDuplicateKeys) {
  (void)expect_malformed(R"({"schema": "nsrel-resultset-v3",
                             "schema": "nsrel-resultset-v3"})");
}

TEST(Malformed, RejectsWrongSchemaTag) {
  const std::string message = expect_malformed(
      replaced(valid_document(), "nsrel-resultset-v3", "nsrel-resultset-v2"));
  EXPECT_NE(message.find("schema"), std::string::npos);
}

TEST(Malformed, RejectsUnknownAndMissingKeys) {
  (void)expect_malformed(
      replaced(valid_document(), "\"method\"", "\"mehtod\""));
  (void)expect_malformed(
      replaced(valid_document(), "\"mttdl_hours\"", "\"mttdl_parsecs\""));
}

TEST(Malformed, RejectsNonFiniteNumbers) {
  // 1e400 overflows a double to +inf, which the writer can only render
  // as null: accepting it would yield a document no reader takes back.
  std::string text = valid_document();
  const std::string key = "\"mttdl_hours\": ";
  const std::size_t at = text.find(key) + key.size();
  text.replace(at, text.find(',', at) - at, "1e400");
  EXPECT_NE(expect_malformed(text).find("cells[0].mttdl_hours"),
            std::string::npos);
}

TEST(Malformed, RejectsBadCellKind) {
  (void)expect_malformed(
      replaced(valid_document(), "\"kind\": \"analytic\"",
               "\"kind\": \"vibes\""));
}

TEST(Malformed, RejectsBadBottleneck) {
  (void)expect_malformed(replaced(valid_document(), "\"disk\"", "\"tape\""));
}

TEST(Malformed, RejectsCellIndexDrift) {
  // The single cell claims point 1 of a 1-point grid: both a range and
  // a row-major-order violation.
  (void)expect_malformed(
      replaced(valid_document(), "\"point\": 0", "\"point\": 1"));
}

TEST(Malformed, RejectsNonIntegerIndices) {
  (void)expect_malformed(
      replaced(valid_document(), "\"point\": 0", "\"point\": 0.5"));
  (void)expect_malformed(
      replaced(valid_document(), "\"point\": 0", "\"point\": -1"));
  (void)expect_malformed(
      replaced(valid_document(), "\"point\": 0", "\"point\": 00"));
}

TEST(Malformed, RejectsCoordinateCountMismatch) {
  // 1-axis document whose point carries 2 coordinates.
  const std::string one_axis =
      document_bytes(engine::parameter_sweep(core::SystemConfig::baseline(),
                                             "drive-mttf", {100e3, 500e3},
                                             {kMixedConfigurations[0]}));
  (void)expect_malformed(replaced(one_axis, "\"x\": [\n        100000\n      ]",
                                  "\"x\": [\n        100000,\n        1\n"
                                  "      ]"));
}

TEST(Malformed, RejectsDepthBomb) {
  std::string bomb;
  for (int i = 0; i < 80; ++i) bomb += '[';
  const std::string message = expect_malformed(bomb);
  EXPECT_NE(message.find("nesting"), std::string::npos);
}

// --- Diff -------------------------------------------------------------

ResultSetDoc parsed(const std::string& bytes) {
  Expected<ResultSetDoc> doc = read_resultset_json(bytes);
  EXPECT_TRUE(doc.has_value());
  return std::move(doc.value());
}

TEST(Diff, SelfCompareIsClean) {
  const std::string bytes = document_bytes(two_axis_grid());
  const Expected<DiffReport> report =
      diff_resultsets(parsed(bytes), parsed(bytes));
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().cells, 8u);
}

TEST(Diff, NumericDriftIsNamedAndOrdered) {
  const ResultSetDoc a = parsed(document_bytes(two_axis_grid()));
  ResultSetDoc b = a;
  std::get<AnalyticCellDoc>(b.cells[5].data).mttdl_hours *= 1.0 + 1e-9;
  std::get<AnalyticCellDoc>(b.cells[2].data).events_per_pb_year *= 2.0;
  const DiffReport report = diff_resultsets(a, b).value();
  ASSERT_EQ(report.rows.size(), 2u);
  // Row-major cell order, regardless of mutation order above.
  EXPECT_EQ(report.rows[0].field, "events_per_pb_year");
  EXPECT_EQ(report.rows[0].point, 1u);
  EXPECT_EQ(report.rows[0].configuration, 0u);
  EXPECT_EQ(report.rows[1].field, "mttdl_hours");
  EXPECT_TRUE(report.rows[1].numeric);
  EXPECT_GT(report.rows[1].rel_delta, 0.0);
}

TEST(Diff, TolerancesSuppressSmallDrift) {
  const ResultSetDoc a = parsed(document_bytes(two_axis_grid()));
  ResultSetDoc b = a;
  std::get<AnalyticCellDoc>(b.cells[0].data).mttdl_hours *= 1.0 + 1e-12;
  EXPECT_FALSE(diff_resultsets(a, b).value().clean());
  EXPECT_TRUE(diff_resultsets(a, b, {.rel_tol = 1e-9}).value().clean());
  // abs_tol is an absolute floor: big enough swallows the delta too.
  const double delta =
      std::get<AnalyticCellDoc>(b.cells[0].data).mttdl_hours -
      std::get<AnalyticCellDoc>(a.cells[0].data).mttdl_hours;
  EXPECT_TRUE(
      diff_resultsets(a, b, {.abs_tol = delta * 2.0}).value().clean());
}

TEST(Diff, IdentityFieldsCompareExactly) {
  engine::Grid grid = engine::single_point(core::SystemConfig::baseline(),
                                           {kMixedConfigurations[0]});
  engine::SimSpec spec;
  spec.trials = 16;
  spec.seed = 5;
  grid.simulation = spec;
  const ResultSetDoc a = parsed(document_bytes(grid));
  ResultSetDoc b = a;
  std::get<SimCellDoc>(b.cells[0].data).seed = 6;
  std::get<SimCellDoc>(b.cells[0].data).trials = 17;
  const DiffReport report = diff_resultsets(a, b).value();
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].field, "trials");
  EXPECT_EQ(report.rows[1].field, "seed");
  EXPECT_EQ(report.rows[1].a, "5");
  EXPECT_EQ(report.rows[1].b, "6");
}

TEST(Diff, KindMismatchIsDriftNotError) {
  // Same shape, one run analytic and one simulated: comparable, but
  // every cell drifts on "kind".
  engine::Grid grid = engine::single_point(core::SystemConfig::baseline(),
                                           {kMixedConfigurations[0]});
  const ResultSetDoc a = parsed(document_bytes(grid));
  engine::SimSpec spec;
  spec.trials = 16;
  grid.simulation = spec;
  const ResultSetDoc b = parsed(document_bytes(grid));
  const DiffReport report = diff_resultsets(a, b).value();
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].field, "kind");
  EXPECT_EQ(report.rows[0].a, "analytic");
  EXPECT_EQ(report.rows[0].b, "sim");
}

TEST(Diff, ShapeMismatchIsTypedError) {
  const ResultSetDoc two = parsed(document_bytes(two_axis_grid()));
  const ResultSetDoc one = parsed(document_bytes(engine::parameter_sweep(
      core::SystemConfig::baseline(), "drive-mttf", {100e3, 500e3},
      kMixedConfigurations)));
  const Expected<DiffReport> report = diff_resultsets(two, one);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, ErrorCode::kInvalidParameter);
  EXPECT_NE(report.error().message().find("axis count"), std::string::npos);

  // Same shape but renamed configuration: also incomparable.
  ResultSetDoc renamed = two;
  renamed.configurations[0] = "FT9, Imaginary";
  EXPECT_FALSE(diff_resultsets(two, renamed).has_value());
}

TEST(Diff, RenderersAreDeterministic) {
  const ResultSetDoc a = parsed(document_bytes(two_axis_grid()));
  ResultSetDoc b = a;
  std::get<AnalyticCellDoc>(b.cells[0].data).mttdl_hours *= 2.0;
  const DiffReport report = diff_resultsets(a, b).value();
  std::ostringstream csv;
  diff_table(report).print_csv(csv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "point,configuration,field,a,b,|delta|,rel");
  std::ostringstream json;
  write_diff_json(report, {}, json);
  EXPECT_NE(json.str().find("\"schema\": \"nsrel-diff-v1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"clean\": false"), std::string::npos);
  // The drift document is itself valid JSON.
  EXPECT_TRUE(parse_json(json.str()).has_value());
}

}  // namespace
}  // namespace nsrel::report
