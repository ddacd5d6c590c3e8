#include "scenario/scenario.hpp"

#include <cstddef>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "obs/recorder.hpp"
#include "obs/session.hpp"
#include "report/events_doc.hpp"
#include "report/table.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace nsrel::scenario {

core::Configuration parse_configuration_token(const std::string& token) {
  const auto dash = token.rfind("-ft");
  if (dash == std::string::npos) {
    throw ContractViolation("configuration token '" + token +
                            "' is not of the form <scheme>-ft<K>");
  }
  const std::string scheme = token.substr(0, dash);
  const std::string ft_text = token.substr(dash + 3);
  core::Configuration configuration;
  if (scheme == "none") {
    configuration.internal = core::InternalScheme::kNone;
  } else if (scheme == "raid5") {
    configuration.internal = core::InternalScheme::kRaid5;
  } else if (scheme == "raid6") {
    configuration.internal = core::InternalScheme::kRaid6;
  } else {
    throw ContractViolation("unknown scheme '" + scheme +
                            "' (use none|raid5|raid6)");
  }
  const std::string what = "configuration token '" + token + "'";
  const Expected<int> ft = parse_int(ft_text, "scenario", what);
  if (!ft.has_value()) throw ContractViolation(ft.error().message());
  if (ft.value() < 1) {
    throw ContractViolation(Error{ErrorCode::kInvalidParameter, "scenario",
                                  what + ": fault tolerance must be >= 1"}
                                .message());
  }
  configuration.node_fault_tolerance = ft.value();
  return configuration;
}

Scenario parse_scenario(const std::string& text) {
  const IniDocument doc = IniDocument::parse(text);
  Scenario scenario;

  // [system]: every key must be a known parameter name.
  scenario.system = core::SystemConfig::baseline();
  for (const auto& [key, value] : doc.section("system")) {
    const double number = doc.get_double("system", key, 0.0);
    if (!core::set_parameter(scenario.system, key, number)) {
      throw ContractViolation("unknown system parameter '" + key + "'");
    }
  }
  scenario.system.validate();

  // [configurations].
  const std::string list =
      doc.get("configurations", "list", "none-ft2, raid5-ft2, none-ft3");
  for (const std::string& token : split_list(list)) {
    scenario.configurations.push_back(parse_configuration_token(token));
  }
  NSREL_ENSURES(!scenario.configurations.empty());

  // [sweep], [sweep.2], [sweep.3], ... (optional; consecutive sections,
  // each one axis of a cartesian grid).
  for (std::size_t axis = 1;; ++axis) {
    const std::string section =
        axis == 1 ? "sweep" : "sweep." + std::to_string(axis);
    if (!doc.has_section(section)) break;
    Sweep sweep;
    sweep.parameter = doc.get(section, "param", "");
    if (sweep.parameter.empty()) {
      throw ContractViolation("[" + section + "] requires 'param'");
    }
    core::SystemConfig probe = scenario.system;
    if (!core::set_parameter(probe, sweep.parameter, 1.0)) {
      throw ContractViolation("unknown sweep parameter '" + sweep.parameter +
                              "'");
    }
    for (const Sweep& existing : scenario.sweeps) {
      if (existing.parameter == sweep.parameter) {
        throw ContractViolation("sweep parameter '" + sweep.parameter +
                                "' appears on more than one axis");
      }
    }
    sweep.from = doc.get_double(section, "from", 0.0);
    sweep.to = doc.get_double(section, "to", 0.0);
    sweep.steps = doc.get_int(section, "steps", 5);
    const std::string scale = doc.get(section, "scale", "log");
    if (scale == "log") {
      sweep.log_scale = true;
    } else if (scale == "linear") {
      sweep.log_scale = false;
    } else {
      throw ContractViolation("unknown sweep scale '" + scale + "'");
    }
    if (!(sweep.from > 0.0) || !(sweep.to > sweep.from) || sweep.steps < 2) {
      throw ContractViolation("[" + section +
                              "] requires 0 < from < to and steps >= 2");
    }
    scenario.sweeps.push_back(sweep);
  }

  // [output].
  scenario.format =
      report::parse_output_format(doc.get("output", "format", "table"));
  scenario.target =
      core::ReliabilityTarget{doc.get_double("output", "target", 2e-3)};
  scenario.method = core::parse_method(doc.get("output", "method", "exact"));
  scenario.jobs = doc.get_int("output", "jobs", 1);
  if (scenario.jobs < 0) {
    throw ContractViolation("[output] jobs must be >= 0 (0 = all cores)");
  }
  scenario.on_error =
      engine::parse_on_error(doc.get("output", "on_error", "skip"));
  scenario.trace = doc.get("output", "trace", "");
  scenario.events = doc.get("output", "events", "");

  // Reject unexpected sections (likely typos). Sweep sections beyond the
  // consecutive run parsed above ([sweep.4] with no [sweep.3]) land here
  // too, with a hint about the numbering rule.
  for (const std::string& name : doc.section_names()) {
    if (name == "system" || name == "configurations" || name == "output" ||
        name.empty()) {
      continue;
    }
    bool consumed_sweep = false;
    for (std::size_t axis = 1; axis <= scenario.sweeps.size(); ++axis) {
      const std::string section =
          axis == 1 ? "sweep" : "sweep." + std::to_string(axis);
      if (name == section) {
        consumed_sweep = true;
        break;
      }
    }
    if (consumed_sweep) continue;
    if (name.rfind("sweep", 0) == 0) {
      throw ContractViolation(
          "unknown section [" + name +
          "] (sweep axes must be consecutive: [sweep], [sweep.2], ...)");
    }
    throw ContractViolation("unknown section [" + name + "]");
  }
  return scenario;
}

RunOutcome run_scenario(const Scenario& scenario, std::ostream& out) {
  // Nested inside the CLI's session, a channel the command line already
  // records stays the CLI's: its flag wins over the [output] key.
  obs::Session session({scenario.trace, /*metrics=*/false,
                        /*registry=*/false,
                        /*journal=*/!scenario.events.empty()});
  engine::Grid grid;
  if (!scenario.sweeps.empty()) {
    std::vector<engine::AxisSpec> axes;
    axes.reserve(scenario.sweeps.size());
    for (const Sweep& sweep : scenario.sweeps) {
      engine::AxisSpec axis;
      axis.parameter = sweep.parameter;
      axis.values = engine::spaced_points(sweep.from, sweep.to, sweep.steps,
                                          sweep.log_scale);
      axes.push_back(std::move(axis));
    }
    grid = engine::cartesian_sweep(scenario.system, axes,
                                   scenario.configurations, scenario.method);
  } else {
    grid = engine::single_point(scenario.system, scenario.configurations,
                                scenario.method);
  }

  engine::EvalOptions options;
  options.jobs = scenario.jobs;
  options.on_error = scenario.on_error;
  const engine::ResultSet results = engine::evaluate(grid, options);

  switch (scenario.format) {
    case report::OutputFormat::kTable:
      engine::events_table(results, &scenario.target).print(out);
      out << "(* = meets " << sci(scenario.target.events_per_pb_year)
          << " events/PB-yr)\n";
      for (const engine::CellError& failure : results.errors()) {
        out << "failed: " << grid.points[failure.point].label << " / "
            << core::name(grid.configurations[failure.configuration]) << ": "
            << failure.error.message() << "\n";
      }
      break;
    case report::OutputFormat::kCsv:
      engine::events_table(results, nullptr).print_csv(out);
      break;
    case report::OutputFormat::kJson:
      engine::write_json(results, out);
      break;
  }

  std::ostringstream unused;  // finish() fails only on the trace file
  if (!session.finish(unused)) {
    throw ContractViolation("cannot write trace file '" + scenario.trace +
                            "'");
  }
  if (session.owns(obs::kJournal) &&
      !report::write_events_file(scenario.events)) {
    throw ContractViolation("cannot write events file '" + scenario.events +
                            "'");
  }

  const std::size_t total =
      results.point_count() * results.configuration_count();
  const std::size_t ok = results.ok_count();
  return RunOutcome{ok, total - ok};
}

RunOutcome run_scenario_text(const std::string& text, std::ostream& out) {
  return run_scenario(parse_scenario(text), out);
}

}  // namespace nsrel::scenario
