// Scenario files: declarative reliability studies.
//
// A scenario describes a system (overrides over the paper baseline), a
// set of redundancy configurations, and optionally one or more sweep
// axes, then runs to a table or CSV. Example:
//
//   # my-study.scenario
//   [system]
//   n = 64
//   drive-mttf = 300e3
//   link-gbps = 10
//
//   [configurations]
//   list = none-ft2, raid5-ft2, none-ft3
//
//   [sweep]              ; optional — without it, a single evaluation
//   param = rebuild-kb
//   from = 4
//   to = 1024
//   steps = 9
//   scale = log          ; or linear
//
//   [sweep.2]            ; optional second axis: the grid becomes the
//   param = link-gbps    ; cartesian product (rows ordered first axis
//   from = 1             ; outermost, last axis fastest). [sweep.3] etc.
//   to = 10              ; nest further; sections must be consecutive.
//   steps = 3
//
//   [output]
//   format = table       ; or csv, json
//   target = 2e-3
//   jobs = 1             ; worker threads (0 = all cores; never changes
//                        ; results — the engine is jobs-invariant)
//   on_error = skip      ; skip: evaluate the rest and mark failed cells
//                        ; with their error code; fail: stop at the
//                        ; first failure (throws ErrorException)
//   trace = run.json     ; optional — write a Chrome/Perfetto trace of
//                        ; the evaluation (table/CSV/JSON unaffected)
//   events = run.ndjson  ; optional — write the flight-recorder journal
//                        ; (nsrel-events-v1; render with `nsrel events`)
//
// Configuration tokens are `<scheme>-ft<K>` with scheme none|raid5|raid6.
// Evaluation runs through engine::evaluate — the same parallel,
// solve-memoizing path the CLI and the figure benches use.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "engine/engine.hpp"
#include "report/table.hpp"
#include "scenario/ini.hpp"

namespace nsrel::scenario {

struct Sweep {
  std::string parameter;
  double from = 0.0;
  double to = 0.0;
  int steps = 2;
  bool log_scale = true;
};

struct Scenario {
  core::SystemConfig system;
  std::vector<core::Configuration> configurations;
  /// Sweep axes in declaration order ([sweep], [sweep.2], ...); empty =
  /// single evaluation point. Several axes form a cartesian grid.
  std::vector<Sweep> sweeps;
  report::OutputFormat format = report::OutputFormat::kTable;
  core::ReliabilityTarget target = core::ReliabilityTarget::paper();
  core::Method method = core::Method::kExactChain;
  int jobs = 1;  ///< engine worker threads; 0 = all cores
  /// Failed-cell policy ([output] on_error = skip|fail, default skip).
  engine::OnError on_error = engine::OnError::kSkip;
  /// Optional trace-file path ([output] trace = FILE): run_scenario
  /// records the evaluation and writes a Chrome/Perfetto trace_event
  /// JSON file there. Empty = no tracing. The CLI's --trace flag takes
  /// precedence over this key.
  std::string trace;
  /// Optional flight-recorder path ([output] events = FILE):
  /// run_scenario arms the journal and writes its events as an
  /// nsrel-events-v1 NDJSON file there (render with `nsrel events`).
  /// Empty = journal untouched. The CLI's --events flag takes
  /// precedence over this key.
  std::string events;
};

/// Parses a configuration token like "raid5-ft2".
[[nodiscard]] core::Configuration parse_configuration_token(
    const std::string& token);

/// Builds a Scenario from INI text; throws ContractViolation with context
/// on unknown keys, bad parameter names, or invalid ranges.
[[nodiscard]] Scenario parse_scenario(const std::string& text);

/// How a run went: cells evaluated vs cells failed. Under the default
/// on_error = skip a failing cell never aborts the run; the caller maps
/// a nonzero error_count to its own partial-results signal.
struct RunOutcome {
  std::size_t ok_count = 0;
  std::size_t error_count = 0;

  [[nodiscard]] bool all_ok() const { return error_count == 0; }
};

/// Runs the scenario, writing the result table/CSV to `out`. With
/// on_error = fail a failing cell throws ErrorException instead.
RunOutcome run_scenario(const Scenario& scenario, std::ostream& out);

/// Convenience: parse + run.
RunOutcome run_scenario_text(const std::string& text, std::ostream& out);

}  // namespace nsrel::scenario
