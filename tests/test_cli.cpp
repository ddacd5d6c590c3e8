// Tests for the nsrel command-line tool: argument parsing, config
// mapping, and every command driven end-to-end against string streams.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "util/assert.hpp"

namespace nsrel::cli {
namespace {

Args make_args(std::initializer_list<const char*> tokens) {
  return Args(std::vector<std::string>(tokens.begin(), tokens.end()));
}

TEST(Args, ParsesCommandAndFlags) {
  const Args args = make_args({"analyze", "--n", "32", "--scheme", "none"});
  EXPECT_EQ(args.command(), "analyze");
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 64), 32);
  EXPECT_EQ(args.get_string("scheme", "raid5"), "none");
  EXPECT_EQ(args.get_int("ft", 2), 2);  // fallback
}

TEST(Args, EmptyCommandLine) {
  const Args args = make_args({});
  EXPECT_TRUE(args.command().empty());
}

TEST(Args, RejectsFlagWithoutValue) {
  EXPECT_THROW(make_args({"analyze", "--n"}), ContractViolation);
}

TEST(Args, RejectsStrayPositional) {
  EXPECT_THROW(make_args({"analyze", "oops"}), ContractViolation);
}

TEST(Args, RejectsMalformedNumbers) {
  const Args args = make_args({"analyze", "--n", "abc", "--x", "3.5"});
  EXPECT_THROW((void)args.get_double("n", 0.0), ContractViolation);
  EXPECT_THROW((void)args.get_int("x", 0), ContractViolation);  // non-integer
}

TEST(Args, TracksUnusedFlags) {
  const Args args = make_args({"analyze", "--n", "32", "--typo", "1"});
  (void)args.get_int("n", 64);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ConfigFromArgs, MapsFlagsOntoBaseline) {
  const Args args = make_args({"analyze", "--n", "32", "--drive-mttf", "1e5",
                               "--her-exp", "15", "--link-gbps", "5"});
  const core::SystemConfig config = config_from_args(args);
  EXPECT_EQ(config.node_set_size, 32);
  EXPECT_DOUBLE_EQ(config.drive.mttf.value(), 1e5);
  EXPECT_NEAR(config.drive.her_per_byte, 8e-15, 1e-25);
  EXPECT_DOUBLE_EQ(config.link.raw_speed.value(), 5e9);
  // Untouched fields keep the paper baseline.
  EXPECT_EQ(config.drives_per_node, 12);
  EXPECT_DOUBLE_EQ(config.capacity_utilization, 0.75);
}

TEST(ConfigFromArgs, NoFlagsIsTheBaseline) {
  // config_from_args is the baseline plus one set_parameter per flag, so
  // with none given every field keeps the section-6 value.
  const core::SystemConfig config = config_from_args(make_args({"analyze"}));
  const core::SystemConfig baseline = core::SystemConfig::baseline();
  EXPECT_EQ(config.node_set_size, baseline.node_set_size);
  EXPECT_EQ(config.drive.her_per_byte, baseline.drive.her_per_byte);
  EXPECT_EQ(config.restripe_command.value(),
            baseline.restripe_command.value());
  EXPECT_EQ(config.rebuild_bandwidth_fraction,
            baseline.rebuild_bandwidth_fraction);
  // Each canonical flag given at its baseline value is a no-op too.
  const core::SystemConfig spelled = config_from_args(make_args(
      {"analyze", "--her-exp", "14", "--restripe-kb", "1024", "--n", "64"}));
  EXPECT_EQ(spelled.drive.her_per_byte, baseline.drive.her_per_byte);
  EXPECT_EQ(spelled.restripe_command.value(),
            baseline.restripe_command.value());
}

TEST(ConfigFromArgs, InvalidValuesAreRejected) {
  const Args args = make_args({"analyze", "--util", "1.5"});
  EXPECT_THROW((void)config_from_args(args), ContractViolation);
}

TEST(ConfigurationFromArgs, SchemesAndFt) {
  EXPECT_EQ(configuration_from_args(make_args({"x", "--scheme", "none"}))
                .internal,
            core::InternalScheme::kNone);
  EXPECT_EQ(configuration_from_args(make_args({"x", "--scheme", "raid6",
                                               "--ft", "3"}))
                .node_fault_tolerance,
            3);
  EXPECT_THROW(
      (void)configuration_from_args(make_args({"x", "--scheme", "raid7"})),
      ContractViolation);
}

struct CommandResult {
  int exit_code;
  std::string out;
  std::string err;
};

CommandResult run(std::initializer_list<const char*> tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(make_args(tokens), out, err);
  return {code, out.str(), err.str()};
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << bytes;
  return path;
}

CommandResult run_tokens(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(Args(tokens), out, err);
  return {code, out.str(), err.str()};
}

TEST(Dispatch, HelpAndUnknown) {
  const auto help = run({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  const auto empty = run({});
  EXPECT_EQ(empty.exit_code, kExitUsage);
  const auto unknown = run({"frobnicate"});
  EXPECT_EQ(unknown.exit_code, kExitUsage);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);
}

/// Drives the argv entry point, Args parsing included, the way main() does.
CommandResult run_argv(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"nsrel"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      dispatch(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

TEST(Dispatch, OutOfDomainFlagsAreTypedUsageErrorsNamingTheFlag) {
  const struct {
    std::initializer_list<const char*> argv;
    const char* flag;
  } cases[] = {
      {{"sweep", "--from", "1", "--to", "0"}, "--to"},
      {{"sweep", "--steps", "1"}, "--steps"},
      {{"sweep", "--from", "-5"}, "--from"},
      {{"simulate", "--trials", "1"}, "--trials"},
      {{"simulate", "--param", "n", "--steps", "1"}, "--steps"},
      {{"analyze", "--node-mttf", "abc"}, "--node-mttf"},
      {{"availability", "--restore-hours", "-1"}, "--restore-hours"},
      {{"availability", "--restore-hours", "0"}, "--restore-hours"},
      {{"availability", "--restore-hours", "inf"}, "--restore-hours"},
      // Positive and finite, but its reciprocal (the restore rate) is not.
      {{"availability", "--restore-hours", "1e-320"}, "--restore-hours"},
      // System parameters: core::check at the boundary.
      {{"analyze", "--node-mttf", "-5"}, "--node-mttf"},
      {{"analyze", "--node-mttf", "1e400"}, "--node-mttf"},  // reads as +inf
      {{"analyze", "--n", "-3"}, "--n"},
      {{"analyze", "--r", "0"}, "--r"},
      {{"analyze", "--d", "0"}, "--d"},
      {{"analyze", "--r", "100"}, "--r"},  // above the node set size
      {{"analyze", "--util", "2"}, "--util"},
      {{"analyze", "--link-gbps", "0"}, "--link-gbps"},
      {{"rebuild", "--n", "1"}, "--n"},
      // Simulation options: sim::check at the boundary.
      {{"simulate", "--ci-target", "-1"}, "--ci-target"},
      {{"simulate", "--ci-target", "nan"}, "--ci-target"},
      {{"simulate", "--chunk", "0"}, "--chunk"},
      {{"simulate", "--ci-target", "0.05", "--trials", "100", "--max-trials",
        "50"},
       "--max-trials"},
      {{"provision", "--years", "-1"}, "--years"},
      {{"provision", "--confidence", "2"}, "--confidence"},
  };
  const auto expect_typed = [](const CommandResult& result,
                               const std::string& named) {
    EXPECT_EQ(result.exit_code, kExitUsage) << named;
    EXPECT_NE(result.err.find(named), std::string::npos) << result.err;
    EXPECT_EQ(result.err.find("precondition failed"), std::string::npos)
        << result.err;
    EXPECT_EQ(result.err.find("src/"), std::string::npos) << result.err;
  };
  for (const auto& c : cases) {
    expect_typed(run_argv(c.argv),
                 std::string("cli.args: invalid_parameter: ") + c.flag);
  }
  // A scenario's [system] section goes through the same check.
  const std::string util =
      write_temp("bad_util.scenario", "[system]\nutil = 2\n");
  expect_typed(run_tokens({"scenario", "--file", util}),
               "scenario: invalid_parameter: [system] util");
  const std::string huge_n =
      write_temp("bad_n.scenario", "[system]\nn = 1e12\n");
  expect_typed(run_tokens({"scenario", "--file", huge_n}),
               "scenario: invalid_parameter: [system] n");
  const std::string not_a_number =
      write_temp("bad_number.scenario", "[system]\nutil = abc\n");
  expect_typed(run_tokens({"scenario", "--file", not_a_number}),
               "scenario: invalid_parameter: [system] util");
}

TEST(Dispatch, SweepPointsOutsideTheDomainAreInvalidParameterCells) {
  // The base configuration is valid; only the swept points are not, so
  // the run reports partial results with those cells marked.
  const auto util = run({"sweep", "--param", "util", "--from", "0.5", "--to",
                         "2", "--steps", "3"});
  EXPECT_EQ(util.exit_code, kExitPartialResults);
  EXPECT_NE(util.out.find("!invalid_parameter"), std::string::npos);
  EXPECT_NE(util.err.find("invalid_parameter: util must be in (0, 1]"),
            std::string::npos)
      << util.err;
  // A count past the int range is stored as 0 and rejected, never
  // converted (that conversion is undefined behaviour).
  const auto huge_n = run({"sweep", "--param", "n", "--from", "8", "--to",
                           "1e12", "--steps", "2"});
  EXPECT_EQ(huge_n.exit_code, kExitPartialResults);
  EXPECT_NE(huge_n.err.find("invalid_parameter: n must be an integer"),
            std::string::npos)
      << huge_n.err;
}

TEST(Dispatch, HelpFlagPrintsUsageAndExitsZero) {
  for (const CommandResult& result :
       {run_argv({"--help"}), run_argv({"analyze", "--help"}),
        run_argv({"sweep", "--jobs", "2", "--help"}), run_argv({"help"})}) {
    EXPECT_EQ(result.exit_code, kExitOk) << result.err;
    EXPECT_NE(result.out.find("usage:"), std::string::npos);
    EXPECT_EQ(result.out.find("--solver"), std::string::npos);
  }
}

TEST(Dispatch, FlagWithoutValueIsUsageErrorNamingTheFlag) {
  for (const char* flag : {"--jobs", "--format"}) {
    const auto result = run_argv({"analyze", flag});
    EXPECT_EQ(result.exit_code, kExitUsage) << flag;
    EXPECT_NE(result.err.find(std::string("flag ") + flag +
                              " requires a value"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.err.find("precondition"), std::string::npos);
  }
  // A flag directly followed by another flag is missing its value too.
  const auto chained = run_argv({"analyze", "--format", "--jobs", "2"});
  EXPECT_EQ(chained.exit_code, kExitUsage);
  EXPECT_NE(chained.err.find("flag --format requires a value"),
            std::string::npos)
      << chained.err;
  // Negative numbers still parse as values.
  EXPECT_DOUBLE_EQ(make_args({"sweep", "--from", "-5"}).get_double("from", 0),
                   -5.0);
}

TEST(Dispatch, TinyMttdlPrintsInScientificNotationNotZero) {
  const auto result =
      run_argv({"analyze", "--scheme", "none", "--drive-mttf", "1e-300"});
  EXPECT_EQ(result.exit_code, kExitOk) << result.err;
  EXPECT_NE(result.out.find("MTTDL:"), std::string::npos);
  EXPECT_EQ(result.out.find(" 0.0 h"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("e-"), std::string::npos) << result.out;
}

TEST(Dispatch, StrayPositionalIsUsageErrorNamingTheToken) {
  const auto result = run_argv({"analyze", "oops"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("unexpected argument 'oops' after analyze"),
            std::string::npos)
      << result.err;
}

TEST(Dispatch, RemovedSolverFlagIsAnUnknownFlag) {
  const auto result = run_argv({"analyze", "--solver", "dense"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("unknown flag(s): --solver"), std::string::npos)
      << result.err;
}

TEST(Dispatch, IntegerFlagsAreRangeChecked) {
  for (const char* value : {"abc", "3.5", "2147483648", "1e20",
                            "99999999999999999999"}) {
    const auto result = run_argv({"analyze", "--jobs", value});
    EXPECT_EQ(result.exit_code, kExitUsage) << value;
    EXPECT_NE(result.err.find("cli.args: invalid_parameter: --jobs: '" +
                              std::string(value) + "'"),
              std::string::npos)
        << result.err;
  }
  const auto negative = run_argv({"analyze", "--jobs", "-1"});
  EXPECT_EQ(negative.exit_code, kExitUsage);
  EXPECT_NE(negative.err.find("--jobs must be >= 0"), std::string::npos)
      << negative.err;
}

TEST(Dispatch, AnalyzeBaselineRaid5Ft2MeetsTarget) {
  const auto result = run({"analyze"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("FT2, Internal RAID 5"), std::string::npos);
  EXPECT_NE(result.out.find("(met)"), std::string::npos);
  EXPECT_NE(result.out.find("disk-bound"), std::string::npos);
}

TEST(Dispatch, AnalyzeNirFt1MissesTarget) {
  const auto result = run({"analyze", "--scheme", "none", "--ft", "1"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("MISSED"), std::string::npos);
}

TEST(Dispatch, AnalyzeClosedFormMethod) {
  const auto result = run({"analyze", "--method", "closed"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
}

TEST(Dispatch, AnalyzeRejectsTypos) {
  const auto result = run({"analyze", "--nodes", "32"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("--nodes"), std::string::npos);
}

TEST(Dispatch, CompareListsAllNine) {
  const auto result = run({"compare"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  for (const char* label :
       {"FT1, No Internal RAID", "FT2, Internal RAID 5",
        "FT3, Internal RAID 6"}) {
    EXPECT_NE(result.out.find(label), std::string::npos) << label;
  }
}

TEST(Dispatch, RebuildDecomposition) {
  const auto result = run({"rebuild"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("link crossover"), std::string::npos);
  EXPECT_NE(result.out.find("disk-bound"), std::string::npos);
}

TEST(Dispatch, SweepTableAndCsv) {
  const auto table = run({"sweep", "--param", "drive-mttf", "--from", "1e5",
                          "--to", "7.5e5", "--steps", "3"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("drive-mttf"), std::string::npos);

  const auto csv = run({"sweep", "--param", "link-gbps", "--from", "1",
                        "--to", "10", "--steps", "3", "--csv", "1"});
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find("link-gbps,MTTDL (h),events/PB-yr"),
            std::string::npos);
}

TEST(Dispatch, SweepRejectsUnknownParam) {
  const auto result = run({"sweep", "--param", "wombats"});
  EXPECT_EQ(result.exit_code, kExitUsage);
}

TEST(Dispatch, SweepAcceptsEveryCanonicalParameter) {
  // The old CLI hand-rolled seven parameters; the engine path accepts
  // everything core::set_parameter knows, e.g. util and bw-frac.
  const auto util = run({"sweep", "--param", "util", "--from", "0.5", "--to",
                         "0.9", "--steps", "3"});
  EXPECT_EQ(util.exit_code, 0) << util.err;
  EXPECT_NE(util.out.find("sweeping util"), std::string::npos);
  const auto bw = run({"sweep", "--param", "bw-frac", "--from", "0.05",
                       "--to", "0.2", "--steps", "3"});
  EXPECT_EQ(bw.exit_code, 0) << bw.err;
}

TEST(Dispatch, SweepFormatJsonAndJobsInvariance) {
  const auto serial =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
           "7.5e5", "--steps", "4", "--format", "json", "--jobs", "1"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_NE(serial.out.find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
  EXPECT_NE(serial.out.find("\"name\": \"drive-mttf\""), std::string::npos);
  const auto parallel =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
           "7.5e5", "--steps", "4", "--format", "json", "--jobs", "8"});
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);  // bit-identical across jobs
}

TEST(Dispatch, SweepRejectsUnknownFormat) {
  const auto result = run({"sweep", "--format", "xml"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("unknown output format"), std::string::npos);
}

TEST(Dispatch, AnalyzeAndCompareFormats) {
  const auto json = run({"analyze", "--format", "json"});
  EXPECT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"mttdl_hours\""), std::string::npos);
  const auto csv = run({"analyze", "--format", "csv"});
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find("configuration,MTTDL,events/PB-yr,meets"),
            std::string::npos);
  const auto compare_csv = run({"compare", "--format", "csv", "--jobs", "2"});
  EXPECT_EQ(compare_csv.exit_code, 0) << compare_csv.err;
  EXPECT_NE(compare_csv.out.find("configuration,MTTDL,events/PB-yr,meets"),
            std::string::npos);
  const auto compare_json = run({"compare", "--format", "json"});
  EXPECT_EQ(compare_json.exit_code, 0) << compare_json.err;
  EXPECT_NE(compare_json.out.find("\"axes\": []"), std::string::npos);
}

TEST(Dispatch, AvailabilityBothFamilies) {
  const auto nir = run({"availability", "--scheme", "none", "--ft", "2",
                        "--restore-hours", "24"});
  EXPECT_EQ(nir.exit_code, 0) << nir.err;
  EXPECT_NE(nir.out.find("availability:"), std::string::npos);
  const auto ir = run({"availability", "--scheme", "raid5", "--ft", "2"});
  EXPECT_EQ(ir.exit_code, 0) << ir.err;
}

TEST(Dispatch, AvailabilityRestoreTimeStaysReadable) {
  const auto hours = [](const char* restore) {
    const auto result = run({"availability", "--scheme", "none", "--ft", "2",
                             "--restore-hours", restore});
    EXPECT_EQ(result.exit_code, 0) << result.err;
    const auto line = result.out.find("restore time:");
    return line == std::string::npos
               ? std::string()
               : result.out.substr(line, result.out.find('\n', line) - line);
  };
  EXPECT_EQ(hours("2000"), "restore time:        2000.0 h");
  EXPECT_EQ(hours("999999"), "restore time:        999999.0 h");
  EXPECT_EQ(hours("1e6"), "restore time:        1.00e+06 h");
  EXPECT_EQ(hours("1e300"), "restore time:        1.00e+300 h");
}

TEST(Dispatch, ChainAndAvailabilityRejectOutOfDomainFaultTolerance) {
  const std::initializer_list<const char*> cases[] = {
      {"chain", "--scheme", "none", "--ft", "20"},
      {"chain", "--scheme", "none", "--ft", "8"},  // not below --r 8
      {"chain", "--scheme", "none", "--ft", "17", "--r", "20"},
      {"chain", "--scheme", "raid5", "--ft", "0"},
      {"availability", "--scheme", "none", "--ft", "20"},
      {"availability", "--scheme", "raid6", "--ft", "8"},
  };
  for (const auto& argv : cases) {
    const CommandResult result = run_argv(argv);
    EXPECT_EQ(result.exit_code, kExitUsage) << *argv.begin();
    EXPECT_TRUE(result.out.empty()) << result.out;
    EXPECT_NE(result.err.find("error: core.analyzer: invalid_parameter: "
                              "node fault tolerance"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.err.find("precondition failed"), std::string::npos)
        << result.err;
  }
}

TEST(Dispatch, ChainEmitsDot) {
  const auto nir = run({"chain", "--scheme", "none", "--ft", "2"});
  EXPECT_EQ(nir.exit_code, 0) << nir.err;
  EXPECT_NE(nir.out.find("digraph"), std::string::npos);
  EXPECT_NE(nir.out.find("doublecircle"), std::string::npos);
  // FT2-NIR has 7 transient states + "A": 8 node declarations.
  EXPECT_NE(nir.out.find("label=\"Nd\""), std::string::npos);
  const auto ir = run({"chain", "--scheme", "raid5", "--ft", "3"});
  EXPECT_EQ(ir.exit_code, 0) << ir.err;
  EXPECT_NE(ir.out.find("label=\"2_nodes_lost\""), std::string::npos);
}

// Accelerated system flags: short MTTFs keep trajectories to a handful
// of events so the Monte-Carlo command finishes instantly.
TEST(Dispatch, SimulateReportsEstimateAndAnalyticComparison) {
  const auto result =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "400", "--jobs", "2",
           "--chunk", "64", "--seed", "5"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("simulated MTTDL:"), std::string::npos);
  EXPECT_NE(result.out.find("analytic MTTDL:"), std::string::npos);
  EXPECT_NE(result.out.find("trials:            400"), std::string::npos);
}

TEST(Dispatch, SimulateIsJobsInvariant) {
  const auto pick_estimate_lines = [](const std::string& text) {
    // Everything from the simulated-MTTDL line onward is jobs-independent
    // (the trials line above it prints the job count itself).
    return text.substr(text.find("simulated MTTDL:"));
  };
  const auto serial =
      run({"simulate", "--scheme", "raid5", "--ft", "2", "--node-mttf",
           "500", "--drive-mttf", "300", "--trials", "400", "--jobs", "1",
           "--seed", "5"});
  const auto parallel =
      run({"simulate", "--scheme", "raid5", "--ft", "2", "--node-mttf",
           "500", "--drive-mttf", "300", "--trials", "400", "--jobs", "4",
           "--seed", "5"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(pick_estimate_lines(serial.out),
            pick_estimate_lines(parallel.out));
}

TEST(Dispatch, SimulateAdaptiveStopsAtCiTarget) {
  const auto result =
      run({"simulate", "--scheme", "none", "--ft", "1", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "256", "--ci-target", "0.1",
           "--max-trials", "100000", "--jobs", "2", "--seed", "7"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("95% CI:"), std::string::npos);
}

TEST(Dispatch, SimulateRejectsTypos) {
  const auto result = run({"simulate", "--job", "2"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("--job"), std::string::npos);
}

TEST(Dispatch, ScenarioCommandRequiresFile) {
  const auto missing = run({"scenario"});
  EXPECT_EQ(missing.exit_code, kExitUsage);
  const auto unreadable = run({"scenario", "--file", "/no/such/file"});
  EXPECT_EQ(unreadable.exit_code, kExitUsage);
  EXPECT_NE(unreadable.err.find("cannot open"), std::string::npos);
}

TEST(Dispatch, ProvisionPlansSpares) {
  const auto result = run({"provision", "--years", "5", "--confidence",
                           "0.95"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("node-equivalents"), std::string::npos);
  EXPECT_NE(result.out.find("max initial utilization"), std::string::npos);
}

TEST(Dispatch, ErrorsAreReportedNotThrown) {
  const auto result = run({"analyze", "--scheme", "raid9"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Dispatch, SweepWithDegenerateCellsReportsPartialResults) {
  // A sweep whose low endpoint degenerates the chain must still print
  // every healthy cell, mark the failed ones with their stable code,
  // report each failure on stderr, and exit with the partial-results
  // code — byte-identically at any --jobs.
  const auto serial = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-250", "--to", "3e5", "--steps", "4",
                           "--jobs", "1"});
  EXPECT_EQ(serial.exit_code, kExitPartialResults);
  EXPECT_NE(serial.out.find("!singular_generator"), std::string::npos);
  EXPECT_NE(serial.out.find("3.000e+05"), std::string::npos);
  EXPECT_NE(serial.err.find("cell(s) failed"), std::string::npos);
  EXPECT_NE(serial.err.find("singular_generator"), std::string::npos);
  const auto parallel = run({"sweep", "--param", "drive-mttf", "--from",
                             "1e-250", "--to", "3e5", "--steps", "4",
                             "--jobs", "8"});
  EXPECT_EQ(parallel.exit_code, kExitPartialResults);
  EXPECT_EQ(parallel.out, serial.out);
  EXPECT_EQ(parallel.err, serial.err);
}

TEST(Dispatch, SweepOverflowingToNonFinitePointsIsInvalidParameter) {
  // Geometric spacing from 1e-308 to 3e5 overflows the step ratio, so
  // the later points are infinite. Those cells must surface as
  // invalid_parameter, not crash or poison the run.
  const auto result = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-308", "--to", "3e5", "--steps", "4"});
  EXPECT_EQ(result.exit_code, kExitPartialResults);
  EXPECT_NE(result.out.find("!invalid_parameter"), std::string::npos);
  EXPECT_NE(result.err.find("invalid_parameter"), std::string::npos);
}

TEST(Dispatch, SweepOnErrorFailStopsAtTheFirstFailure) {
  const auto result = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-308", "--to", "3e5", "--steps", "4",
                           "--on-error", "fail"});
  EXPECT_EQ(result.exit_code, kExitInternal);
  EXPECT_NE(result.err.find("singular_generator"), std::string::npos);
  EXPECT_NE(result.err.find("point 0"), std::string::npos);
  const auto bad = run({"sweep", "--param", "n", "--from", "16", "--to",
                        "64", "--steps", "2", "--on-error", "explode"});
  EXPECT_EQ(bad.exit_code, kExitUsage);
}

TEST(Dispatch, RepeatedRunsAreByteIdentical) {
  // The determinism contract nsrel-lint polices statically, asserted
  // dynamically: re-running the same command in one process (warm solve
  // cache, reused thread pool, different heap layout) must reproduce
  // stdout and stderr byte-for-byte, serial and parallel alike.
  const auto first = run({"sweep", "--param", "node-mttf", "--from",
                          "1e4", "--to", "1e5", "--steps", "6",
                          "--jobs", "8"});
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto again = run({"sweep", "--param", "node-mttf", "--from",
                            "1e4", "--to", "1e5", "--steps", "6",
                            "--jobs", "8"});
    EXPECT_EQ(again.exit_code, first.exit_code);
    EXPECT_EQ(again.out, first.out);
    EXPECT_EQ(again.err, first.err);
  }
  const auto serial = run({"sweep", "--param", "node-mttf", "--from",
                           "1e4", "--to", "1e5", "--steps", "6",
                           "--jobs", "1"});
  EXPECT_EQ(serial.out, first.out);

  const auto sim_first = run({"simulate", "--node-mttf", "500",
                              "--drive-mttf", "300", "--trials", "300",
                              "--jobs", "4", "--seed", "11"});
  const auto sim_again = run({"simulate", "--node-mttf", "500",
                              "--drive-mttf", "300", "--trials", "300",
                              "--jobs", "4", "--seed", "11"});
  EXPECT_EQ(sim_again.out, sim_first.out);
}

// ---------------------------------------------------------------------
// Monte-Carlo sweeps: `simulate --param` rides the engine grid.

TEST(Dispatch, SimulateSweepTableAndJobsInvariance) {
  const auto table =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("sweeping drive-mttf"), std::string::npos);
  EXPECT_NE(table.out.find("sim MTTDL (h)"), std::string::npos);
  EXPECT_NE(table.out.find("95% CI (h)"), std::string::npos);

  const auto serial =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3",
           "--format", "json", "--jobs", "1"});
  const auto parallel =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3",
           "--format", "json", "--jobs", "8"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(serial.out, parallel.out);  // bit-identical across jobs
  EXPECT_NE(serial.out.find("\"kind\": \"sim\""), std::string::npos);
}

// ---------------------------------------------------------------------
// `nsrel diff`: compare two written result sets.

TEST(Diff, SelfCompareOfJobsVariantsExitsClean) {
  const auto serial =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to", "7.5e5",
           "--steps", "4", "--format", "json", "--jobs", "1"});
  const auto parallel =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to", "7.5e5",
           "--steps", "4", "--format", "json", "--jobs", "8"});
  const std::string a = write_temp("diff_a.json", serial.out);
  const std::string b = write_temp("diff_b.json", parallel.out);
  const auto result = run_tokens({"diff", a, b});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("no drift"), std::string::npos);
}

TEST(Diff, DriftExitsPartialResultsAndListsFields) {
  const auto base =
      run({"analyze", "--format", "json", "--scheme", "raid5", "--ft", "2"});
  const auto moved =
      run({"analyze", "--format", "json", "--scheme", "raid5", "--ft", "2",
           "--drive-mttf", "2.9e5"});
  const std::string a = write_temp("diff_base.json", base.out);
  const std::string b = write_temp("diff_moved.json", moved.out);
  const auto strict = run_tokens({"diff", a, b});
  EXPECT_EQ(strict.exit_code, kExitPartialResults);
  EXPECT_NE(strict.out.find("mttdl_hours"), std::string::npos);
  EXPECT_NE(strict.out.find("drifting field(s)"), std::string::npos);
  // A huge relative tolerance declares the same pair clean.
  const auto loose = run_tokens({"diff", a, b, "--rel-tol", "1e9"});
  EXPECT_EQ(loose.exit_code, 0) << loose.err;
  // CSV and JSON renderings carry the drift rows too.
  const auto csv = run_tokens({"diff", a, b, "--format", "csv"});
  EXPECT_EQ(csv.exit_code, kExitPartialResults);
  EXPECT_NE(csv.out.find("point,configuration,field"), std::string::npos);
  const auto json = run_tokens({"diff", a, b, "--format", "json"});
  EXPECT_NE(json.out.find("\"schema\": \"nsrel-diff-v1\""),
            std::string::npos);
}

TEST(Diff, UsageErrors) {
  // Wrong operand count.
  EXPECT_EQ(run({"diff"}).exit_code, kExitUsage);
  // Unreadable file.
  const auto missing =
      run_tokens({"diff", "/nonexistent/a.json", "/nonexistent/b.json"});
  EXPECT_EQ(missing.exit_code, kExitUsage);
  EXPECT_NE(missing.err.find("cannot open"), std::string::npos);
  // Malformed document: the typed reader error reaches stderr.
  const std::string bad = write_temp("diff_bad.json", "{\"schema\": 42}");
  const auto malformed = run_tokens({"diff", bad, bad});
  EXPECT_EQ(malformed.exit_code, kExitUsage);
  EXPECT_NE(malformed.err.find("malformed_document"), std::string::npos);
  // Incomparable shapes.
  const auto one = run({"analyze", "--format", "json"});
  const auto sweep = run({"sweep", "--param", "drive-mttf", "--from", "1e5",
                          "--to", "7.5e5", "--steps", "3", "--format",
                          "json"});
  const auto mismatch =
      run_tokens({"diff", write_temp("diff_one.json", one.out),
                  write_temp("diff_sweep.json", sweep.out)});
  EXPECT_EQ(mismatch.exit_code, kExitUsage);
  EXPECT_NE(mismatch.err.find("axis count mismatch"), std::string::npos);
}

}  // namespace
}  // namespace nsrel::cli
