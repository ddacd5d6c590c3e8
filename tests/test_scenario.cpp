// Tests for the scenario module: INI parsing (syntax + errors), scenario
// schema validation, and end-to-end runs to table and CSV.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/ini.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"

namespace nsrel::scenario {
namespace {

TEST(Ini, ParsesSectionsKeysCommentsAndBlanks) {
  const IniDocument doc = IniDocument::parse(R"(
# leading comment
top = 1

[system]
n = 64          ; trailing comment
drive-mttf = 3e5

[empty]
)");
  EXPECT_TRUE(doc.has("", "top"));
  EXPECT_EQ(doc.get("system", "n", ""), "64");
  EXPECT_DOUBLE_EQ(doc.get_double("system", "drive-mttf", 0.0), 3e5);
  EXPECT_TRUE(doc.has_section("empty"));
  EXPECT_FALSE(doc.has_section("missing"));
  EXPECT_EQ(doc.get("missing", "x", "fallback"), "fallback");
}

TEST(Ini, TrimAndSplit) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  const auto pieces = split_list(" a, b ,, c ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Ini, ErrorsCarryLineNumbers) {
  try {
    (void)IniDocument::parse("ok = 1\nbroken line\n");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Ini, RejectsMalformedInput) {
  EXPECT_THROW((void)IniDocument::parse("[unterminated\n"), ContractViolation);
  EXPECT_THROW((void)IniDocument::parse("[]\n"), ContractViolation);
  EXPECT_THROW((void)IniDocument::parse("= value\n"), ContractViolation);
  EXPECT_THROW((void)IniDocument::parse("a = 1\na = 2\n"), ContractViolation);
  const IniDocument doc = IniDocument::parse("[s]\nx = notanumber\n");
  EXPECT_THROW((void)doc.get_double("s", "x", 0.0), ContractViolation);
}

TEST(ConfigurationToken, ParsesAllSchemes) {
  EXPECT_EQ(parse_configuration_token("none-ft3").internal,
            core::InternalScheme::kNone);
  EXPECT_EQ(parse_configuration_token("raid5-ft2").internal,
            core::InternalScheme::kRaid5);
  const auto r6 = parse_configuration_token("raid6-ft1");
  EXPECT_EQ(r6.internal, core::InternalScheme::kRaid6);
  EXPECT_EQ(r6.node_fault_tolerance, 1);
}

TEST(ConfigurationToken, RejectsGarbage) {
  EXPECT_THROW((void)parse_configuration_token("raid5"), ContractViolation);
  EXPECT_THROW((void)parse_configuration_token("raid7-ft2"),
               ContractViolation);
  EXPECT_THROW((void)parse_configuration_token("raid5-ftx"),
               ContractViolation);
  EXPECT_THROW((void)parse_configuration_token("raid5-ft0"),
               ContractViolation);
}

TEST(Scenario, DefaultsWhenSectionsAbsent) {
  const Scenario scenario = parse_scenario("");
  EXPECT_EQ(scenario.configurations.size(), 3u);  // the sensitivity trio
  EXPECT_TRUE(scenario.sweeps.empty());
  EXPECT_EQ(scenario.format, report::OutputFormat::kTable);
  EXPECT_EQ(scenario.jobs, 1);
  EXPECT_DOUBLE_EQ(scenario.target.events_per_pb_year, 2e-3);
}

TEST(Scenario, OutputFormatAndJobsParse) {
  const Scenario json = parse_scenario("[output]\nformat = json\njobs = 4\n");
  EXPECT_EQ(json.format, report::OutputFormat::kJson);
  EXPECT_EQ(json.jobs, 4);
  const Scenario all_cores = parse_scenario("[output]\njobs = 0\n");
  EXPECT_EQ(all_cores.jobs, 0);
  EXPECT_THROW((void)parse_scenario("[output]\njobs = -1\n"),
               ContractViolation);
}

TEST(Scenario, FaultToleranceTokensAreRangeChecked) {
  // 4294967298 used to pass strtol and wrap through a cast to int: the
  // scenario silently ran FT2.
  for (const char* ft : {"4294967298", "2147483648", "-1", "0", "x"}) {
    const std::string token = std::string("none-ft") + ft;
    try {
      (void)parse_scenario("[configurations]\nlist = " + token + "\n");
      ADD_FAILURE() << token << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario: invalid_parameter: configuration token '" +
                          token + "'"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(parse_configuration_token("raid6-ft3").node_fault_tolerance, 3);
}

TEST(Scenario, IntegerKeysAreRangeChecked) {
  // Each value used to reach a bare double-to-int cast; 99999999999999
  // came out as "must be >= 0".
  for (const char* value :
       {"abc", "3.5", "2147483648", "1e20", "99999999999999"}) {
    try {
      (void)parse_scenario(std::string("[output]\njobs = ") + value + "\n");
      ADD_FAILURE() << "jobs = " << value << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("invalid_parameter: [output] jobs: '" +
                          std::string(value) + "'"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_THROW((void)parse_scenario("[sweep.1]\nparam = n\nfrom = 8\n"
                                    "to = 64\nsteps = 1e20\n"),
               ContractViolation);
  try {
    (void)parse_scenario("[output]\njobs = -1\n");
    ADD_FAILURE() << "jobs = -1 was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("must be >= 0"), std::string::npos);
  }
}

TEST(Scenario, SystemOverridesApply) {
  const Scenario scenario = parse_scenario(R"(
[system]
n = 32
link-gbps = 5
)");
  EXPECT_EQ(scenario.system.node_set_size, 32);
  EXPECT_DOUBLE_EQ(scenario.system.link.raw_speed.value(), 5e9);
  EXPECT_EQ(scenario.system.drives_per_node, 12);  // baseline retained
}

TEST(Scenario, RejectsUnknownKeysAndSections) {
  EXPECT_THROW((void)parse_scenario("[system]\nwombats = 3\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_scenario("[mystery]\nx = 1\n"), ContractViolation);
  EXPECT_THROW((void)parse_scenario("[sweep]\nparam = wombats\nfrom = 1\nto "
                                    "= 2\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_scenario("[sweep]\nparam = n\nfrom = 5\nto = 2\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_scenario("[output]\nformat = xml\n"),
               ContractViolation);
}

TEST(Scenario, SingleEvaluationRun) {
  std::ostringstream out;
  run_scenario_text(R"(
[configurations]
list = raid5-ft2
)",
                    out);
  const std::string text = out.str();
  EXPECT_NE(text.find("FT2, Internal RAID 5"), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // meets target at baseline
}

TEST(Scenario, SweepRunTableShape) {
  std::ostringstream out;
  run_scenario_text(R"(
[configurations]
list = none-ft3
[sweep]
param = link-gbps
from = 1
to = 10
steps = 4
scale = log
)",
                    out);
  const std::string text = out.str();
  // Header + underline + 4 rows + footnote.
  int lines = 0;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 7);
}

TEST(Scenario, CsvOutput) {
  std::ostringstream out;
  run_scenario_text(R"(
[configurations]
list = none-ft2, raid5-ft2
[sweep]
param = drive-mttf
from = 1e5
to = 7.5e5
steps = 3
scale = linear
[output]
format = csv
)",
                    out);
  const std::string text = out.str();
  EXPECT_NE(text.find("drive-mttf,"), std::string::npos);
  // CSV: no asterisks, 4 lines (header + 3 rows).
  EXPECT_EQ(text.find('*'), std::string::npos);
}

TEST(Scenario, JsonOutputAndJobsInvariance) {
  const char* kBody = R"(
[configurations]
list = none-ft2, raid5-ft2
[sweep]
param = drive-mttf
from = 1e5
to = 7.5e5
steps = 4
scale = log
[output]
format = json
)";
  std::ostringstream serial;
  run_scenario_text(std::string(kBody) + "jobs = 1\n", serial);
  EXPECT_NE(serial.str().find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
  EXPECT_NE(serial.str().find("\"name\": \"drive-mttf\""), std::string::npos);

  // Same scenario at jobs = 4: bytes must match exactly.
  std::ostringstream parallel;
  run_scenario_text(std::string(kBody) + "jobs = 4\n", parallel);
  EXPECT_EQ(serial.str(), parallel.str());
}

TEST(Scenario, LinearAndLogSpacingDiffer) {
  const Scenario log_s = parse_scenario(
      "[sweep]\nparam = n\nfrom = 16\nto = 256\nsteps = 3\nscale = log\n");
  const Scenario lin_s = parse_scenario(
      "[sweep]\nparam = n\nfrom = 16\nto = 256\nsteps = 3\nscale = linear\n");
  ASSERT_EQ(log_s.sweeps.size(), 1u);
  EXPECT_TRUE(log_s.sweeps[0].log_scale);
  EXPECT_FALSE(lin_s.sweeps[0].log_scale);
}

TEST(Scenario, RepositoryScenarioFilesParse) {
  // Keep the shipped example files valid.
  for (const char* text : {
           // mirror of scenarios/baseline.scenario structure
           "[configurations]\nlist = none-ft1, raid5-ft2\n[output]\nformat "
           "= table\n",
       }) {
    EXPECT_NO_THROW((void)parse_scenario(text));
  }
}

// ---------------------------------------------------------------------
// Cartesian sweeps: [sweep.2] and beyond.

TEST(Cartesian, TwoAxisScenarioBuildsTheProductGrid) {
  const Scenario scenario = parse_scenario(R"(
[sweep]
param = drive-mttf
from = 1e5
to = 5e5
steps = 3
[sweep.2]
param = link-gbps
from = 1
to = 10
steps = 2
)");
  ASSERT_EQ(scenario.sweeps.size(), 2u);
  EXPECT_EQ(scenario.sweeps[0].parameter, "drive-mttf");
  EXPECT_EQ(scenario.sweeps[1].parameter, "link-gbps");
  std::ostringstream out;
  const RunOutcome outcome = run_scenario(scenario, out);
  EXPECT_EQ(outcome.ok_count, 3u * 2u * 3u);  // points x configurations
  EXPECT_NE(out.str().find("drive-mttf x link-gbps"), std::string::npos);
}

TEST(Cartesian, RejectsDuplicateAxisParameterAndGappedSections) {
  EXPECT_THROW(
      (void)parse_scenario("[sweep]\nparam = n\nfrom = 16\nto = 64\nsteps = "
                           "2\n[sweep.2]\nparam = n\nfrom = 16\nto = "
                           "64\nsteps = 2\n"),
      ContractViolation);
  // [sweep.3] with no [sweep.2] is a typo, not a third axis.
  try {
    (void)parse_scenario(
        "[sweep]\nparam = n\nfrom = 16\nto = 64\nsteps = 2\n"
        "[sweep.3]\nparam = util\nfrom = 0.5\nto = 0.9\nsteps = 2\n");
    FAIL() << "gapped sweep section accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("consecutive"), std::string::npos);
  }
}

TEST(Cartesian, CommittedScenarioMatchesGoldenOutput) {
  // scenarios/mttf_x_bandwidth.scenario is the repo's 2-axis example;
  // its table output is pinned byte-for-byte. Regenerate the golden
  // with:  nsrel scenario --file scenarios/mttf_x_bandwidth.scenario
  //        > tests/golden/mttf_x_bandwidth.golden
  const std::string root = NSREL_SOURCE_DIR;
  std::ifstream scenario_file(root + "/scenarios/mttf_x_bandwidth.scenario");
  ASSERT_TRUE(scenario_file.good());
  std::ostringstream scenario_text;
  scenario_text << scenario_file.rdbuf();
  std::ifstream golden_file(root + "/tests/golden/mttf_x_bandwidth.golden");
  ASSERT_TRUE(golden_file.good());
  std::ostringstream golden;
  golden << golden_file.rdbuf();

  std::ostringstream out;
  const RunOutcome outcome = run_scenario_text(scenario_text.str(), out);
  EXPECT_TRUE(outcome.all_ok());
  EXPECT_EQ(out.str(), golden.str());
}

}  // namespace
}  // namespace nsrel::scenario
