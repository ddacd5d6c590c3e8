#include "cli/commands.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/dot.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "models/availability.hpp"
#include "obs/build_info.hpp"
#include "obs/progress.hpp"
#include "obs/session.hpp"
#include "obs/snapshot.hpp"
#include "placement/layout.hpp"
#include "report/diff.hpp"
#include "report/events_doc.hpp"
#include "report/json.hpp"
#include "report/metrics_doc.hpp"
#include "report/resultset_doc.hpp"
#include "report/summary.hpp"
#include "report/table.hpp"
#include "sim/estimate.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace nsrel::cli {

namespace {

constexpr const char* kUsage = R"(nsrel — reliability modeling for networked storage nodes
(Rao, Hafner, Golding: "Reliability for Networked Storage Nodes", DSN 2006)

usage: nsrel <command> [--flag value ...]

commands:
  analyze       MTTDL and data-loss events/PB-year for one configuration
  compare       all 9 configurations against the reliability target
  rebuild       rebuild-rate decomposition (disk vs network, re-stripe)
  sweep         sensitivity sweep over one parameter (--param, --from,
                --to, --steps)
  availability  steady-state availability given a restore tier
                (--restore-hours, default 168)
  scenario      run a declarative scenario file (--file path, optional
                --jobs); see scenarios/*.scenario for the format
  simulate      parallel Monte-Carlo MTTDL estimate vs the analytic model
                (--trials, --seed, --jobs, --ci-target, --chunk,
                --max-trials); regenerative importance sampling runs
                the paper's baseline rates in milliseconds (if no trial
                sees a loss the cell fails with non_finite_result:
                raise --trials or set --ci-target). With --param/--from/
                --to/--steps it becomes a Monte-Carlo sweep through the
                grid engine (same --format/--jobs/--on-error as sweep)
  diff          compare two written resultset JSON documents
                (nsrel diff A.json B.json [--abs-tol X] [--rel-tol Y]
                [--format table|csv|json]); exit 0 = no drift, 3 = drift,
                4 = unreadable or incomparable inputs
  events        render a flight-recorder journal written by --events
                (nsrel events RUN.ndjson [--view timeline|batches]
                [--format table|csv|json]); batches rolls a faulted
                repair run up into per-barrier fault/retry/read counts
  report        aggregate observability documents across runs
                (nsrel report A.json B.ndjson ...): counters and
                histograms merged with exact snapshot algebra, event
                counts per journal, one column per input plus a total
  chain         emit the configuration's Markov chain as Graphviz DOT
                (pipe into `dot -Tpdf` for a Figure-5-style diagram)
  provision     fail-in-place spare planning: utilization that survives
                the service life (--years, --confidence)
  version       build identity: semver, git SHA, compiler, build type
                (--version anywhere does the same)
  help          this text (--help anywhere does the same)

configuration flags:
  --scheme none|raid5|raid6   internal redundancy        (default raid5)
  --ft K                      node fault tolerance       (default 2)
  --method exact|closed       solution path              (default exact)

evaluation flags (analyze | compare | sweep; all three run through the
parallel grid-evaluation engine — output never depends on --jobs):
  --format table|csv|json     rendering                  (default table)
  --jobs N                    worker threads, 0 = all cores (default 1)
  --on-error skip|fail        failed-cell policy         (default skip)
                              skip: evaluate the rest, mark failures with
                              their error code, exit 3; fail: stop at the
                              first failure and exit 5

system flags (defaults = the paper's section-6 baseline):
  --n 64          node set size         --r 8            redundancy set size
  --d 12          drives per node       --node-mttf 4e5  hours
  --drive-mttf 3e5 hours                --capacity-gb 300
  --her-exp 14    1 sector per 10^K bits read            --iops 150
  --xfer-mbps 40  sustained drive MB/s  --link-gbps 10
  --rebuild-kb 128                      --restripe-kb 1024
  --util 0.75     capacity utilization  --bw-frac 0.10   rebuild bandwidth
  --target 2e-3   events/PB-year

sweep parameters (--param): any canonical system parameter — n | r | d |
  node-mttf | drive-mttf | capacity-gb | her-exp | iops | xfer-mbps |
  link-gbps | rebuild-kb | restripe-kb | util | bw-frac
  (--csv 1 is kept as a deprecated alias for --format csv)

simulate flags:
  --trials 4000   Monte-Carlo trials   --seed 24141     RNG seed
  --jobs 1        worker threads (0 = all cores; never changes results)
  --ci-target 0   adaptive stop at this relative 95% CI half-width
                  (e.g. 0.05 = ±5%; 0 = run exactly --trials)
  --chunk 256     trials per RNG stream chunk
  --max-trials 1000000  adaptive-mode trial cap

observability flags (any command; stdout stays byte-identical with these
on or off, at any --jobs):
  --trace FILE    write a Chrome/Perfetto trace_event JSON recording of
                  the run (load in ui.perfetto.dev or chrome://tracing)
  --metrics       print the metrics-registry block to stderr at exit
  --progress      sweep/simulate: cells|chunks done/total + ETA on
                  stderr, throttled to <= 4 updates/s
  --cache-stats   opt into solve-cache counters in the output: a
                  "cache: N hits, ..." footer after tables/CSV, a
                  meta.cache object in --format json (counters are
                  schedule-dependent for --jobs > 1)
  --events FILE   write the flight-recorder journal as nsrel-events-v1
                  NDJSON (typed solve/cache/cell/sim/repair events on
                  deterministic clocks, byte-identical at any --jobs);
                  render it with `nsrel events`
  --metrics-out FILE  write the metrics registry as an nsrel-metrics-v1
                  JSON document (exact counters, log2 histograms with
                  p50/p90/p99); aggregate runs with `nsrel report`

exit codes:
  0  success — every cell evaluated
  3  partial results — at least one cell failed (failures are marked in
     the output and detailed on stderr with stable error codes)
  4  usage error — unknown command/flag, bad value, unreadable file
  5  internal or evaluation error — unexpected exception, or a cell
     failure under --on-error fail
)";

core::Method method_from_args(const Args& args) {
  return core::parse_method(args.get_string("method", "exact"));
}

/// Shared evaluation flags of analyze/compare/sweep. --csv 1 is the
/// pre-engine spelling of --format csv, kept as an alias.
struct EvalFlags {
  engine::EvalOptions options;
  report::OutputFormat format = report::OutputFormat::kTable;
  bool cache_stats = false;  ///< --cache-stats: opt into cache counters
};

EvalFlags eval_flags_from_args(const Args& args) {
  EvalFlags flags;
  flags.cache_stats = args.has("cache-stats");
  flags.options.jobs = args.get_int("jobs", 1);
  if (flags.options.jobs < 0) {
    invalid_flag("jobs", "must be >= 0 (0 = all cores)");
  }
  // The CLI default is skip: report what evaluated, mark what failed.
  // "fail" maps to the engine's fail-fast, surfacing as exit 5.
  flags.options.on_error =
      engine::parse_on_error(args.get_string("on-error", "skip"));
  const bool legacy_csv = args.get_int("csv", 0) != 0;
  flags.format = report::parse_output_format(
      args.get_string("format", legacy_csv ? "csv" : "table"));
  return flags;
}

/// The one --cache-stats footer per command: a line after table and
/// CSV output. JSON carries the counters structurally instead
/// (JsonOptions::cache_meta), since a trailing line would corrupt it.
void maybe_cache_footer(const EvalFlags& flags,
                        const engine::ResultSet& results, std::ostream& out) {
  if (!flags.cache_stats || flags.format == report::OutputFormat::kJson) {
    return;
  }
  const core::SolveCache::Stats stats = results.cache_stats();
  out << "cache: " << stats.hits << " hits, " << stats.misses << " misses ("
      << (stats.hits + stats.misses) << " lookups)\n";
}

/// Reads a whole input file (scenario, diff, events, report);
/// nullopt (with a message on `err`) when unreadable.
std::optional<std::string> read_file(const std::string& path,
                                     std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

/// A typed error in the user's input to a single-result command: "error:
/// <layer>: <code>: <detail>" on `err`, exit 4.
int report_usage_error(const Error& error, std::ostream& err) {
  err << "error: " << error.message() << "\n";
  return kExitUsage;
}

int check_unused(const Args& args, std::ostream& err) {
  const auto unused = args.unused();
  if (unused.empty()) return 0;
  err << "unknown flag(s):";
  for (const auto& key : unused) err << " --" << key;
  err << "\n";
  return kExitUsage;
}

/// Details every failed cell on stderr (row-major, so the lines are
/// jobs-invariant like the rendered output) and maps the run to its
/// exit code: 0 all cells ok, 3 partial results.
int report_failures(const engine::ResultSet& results, std::ostream& err) {
  const std::vector<engine::CellError> failures = results.errors();
  if (failures.empty()) return 0;
  const std::size_t total =
      results.point_count() * results.configuration_count();
  err << "warning: " << failures.size() << " of " << total
      << " cell(s) failed:\n";
  for (const engine::CellError& failure : failures) {
    err << "  " << results.grid().points[failure.point].label << " / "
        << core::name(results.grid().configurations[failure.configuration])
        << ": " << failure.error.message() << "\n";
  }
  return kExitPartialResults;
}

/// compare's rendering in every format; analyze shares it for csv and
/// json.
void print_compare(const EvalFlags& flags, const engine::ResultSet& results,
                   const core::ReliabilityTarget& target, std::ostream& out) {
  switch (flags.format) {
    case report::OutputFormat::kTable:
      engine::compare_table(results, target).print(out);
      break;
    case report::OutputFormat::kCsv:
      engine::compare_table(results, target).print_csv(out);
      break;
    case report::OutputFormat::kJson:
      engine::write_json(results, out,
                         engine::JsonOptions{flags.cache_stats});
      break;
  }
  maybe_cache_footer(flags, results, out);
}

int run_analyze(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig system = config_from_args(args);
  const core::Configuration configuration = configuration_from_args(args);
  const core::Method method = method_from_args(args);
  const core::ReliabilityTarget target{args.get_double("target", 2e-3)};
  const EvalFlags flags = eval_flags_from_args(args);
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const engine::Grid grid =
      engine::single_point(system, {configuration}, method);
  const engine::ResultSet results = engine::evaluate(grid, flags.options);
  if (flags.format != report::OutputFormat::kTable) {
    print_compare(flags, results, target, out);
    return report_failures(results, err);
  }
  if (!results.ok(0, 0)) {
    out << "configuration:     " << core::name(configuration) << "\n";
    return report_failures(results, err);
  }
  const core::AnalysisResult& result = results.at(0, 0);
  out << "configuration:     " << core::name(configuration) << "\n"
      << "MTTDL:             " << human_hours(result.mttdl.value()) << "\n"
      << "events/system-yr:  " << sci(result.events_per_system_year) << "\n"
      << "logical capacity:  " << human_bytes(result.logical_capacity.value())
      << "\n"
      << "events/PB-yr:      " << sci(result.events_per_pb_year) << "\n"
      << "target:            " << sci(target.events_per_pb_year) << " ("
      << (target.met_by(result) ? "met" : "MISSED") << ")\n"
      << "node rebuild:      "
      << fixed(to_hours(result.rebuild.node_rebuild_time).value(), 2)
      << " h ("
      << (result.rebuild.node_bottleneck == rebuild::Bottleneck::kDisk
              ? "disk"
              : "network")
      << "-bound)\n";
  if (configuration.internal != core::InternalScheme::kNone) {
    out << "array lambda_D:    " << sci(result.array_failure_rate.value())
        << " /h\narray lambda_S:    " << sci(result.sector_error_rate.value())
        << " /h\nre-stripe:         "
        << fixed(to_hours(result.rebuild.restripe_time).value(), 1) << " h\n";
  }
  maybe_cache_footer(flags, results, out);
  return kExitOk;
}

int run_compare(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig system = config_from_args(args);
  const core::Method method = method_from_args(args);
  const core::ReliabilityTarget target{args.get_double("target", 2e-3)};
  const EvalFlags flags = eval_flags_from_args(args);
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const engine::Grid grid =
      engine::single_point(system, core::all_configurations(), method);
  const engine::ResultSet results = engine::evaluate(grid, flags.options);
  print_compare(flags, results, target, out);
  return report_failures(results, err);
}

int run_rebuild(const Args& args, std::ostream& out, std::ostream& err) {
  const core::Analyzer analyzer(config_from_args(args));
  const int ft = args.get_int("ft", 2);
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const rebuild::RebuildPlanner planner = analyzer.planner(ft);
  const auto flows = planner.flows();
  const auto rates = planner.rates();
  out << "node's worth of data: " << human_bytes(planner.node_data().value())
      << "\n"
      << "data in+out per node: " << fixed(flows.node_network_inout, 4)
      << " node's-worth; to/from disks: " << fixed(flows.node_disk_traffic, 4)
      << "\n"
      << "disk-side time:       "
      << fixed(to_hours(planner.node_disk_time()).value(), 2) << " h\n"
      << "network-side time:    "
      << fixed(to_hours(planner.node_network_time()).value(), 2) << " h\n"
      << "node rebuild:         "
      << fixed(to_hours(rates.node_rebuild_time).value(), 2) << " h ("
      << (rates.node_bottleneck == rebuild::Bottleneck::kDisk ? "disk"
                                                              : "network")
      << "-bound)\n"
      << "drive rebuild:        "
      << fixed(to_hours(rates.drive_rebuild_time).value(), 2) << " h\n"
      << "array re-stripe:      "
      << fixed(to_hours(rates.restripe_time).value(), 1) << " h\n"
      << "link crossover:       "
      << fixed(planner.link_speed_crossover().value() / 1e9, 2) << " Gb/s\n";
  return 0;
}

/// The --from/--to/--steps domain shared by both sweep commands.
void check_sweep_range(double from, double to, int steps) {
  if (steps < 2) invalid_flag("steps", "must be >= 2");
  if (!(from > 0.0)) invalid_flag("from", "must be > 0");
  if (!(to > from)) invalid_flag("to", "must be > --from");
}

/// The body both sweep commands share: --param over `base` from --from
/// to --to in --steps log-spaced points (sensitivity plots in the paper
/// span decades), one cell per point through the grid engine; with
/// `simulation` set the cells are Monte-Carlo estimates.
int run_grid_sweep(const Args& args, const core::SystemConfig& base,
                   const core::Configuration& configuration,
                   core::Method method,
                   std::optional<engine::SimSpec> simulation,
                   std::ostream& out, std::ostream& err) {
  const std::string param = args.get_string("param", "drive-mttf");
  const double from = args.get_double("from", 100e3);
  const double to = args.get_double("to", 750e3);
  const int steps = args.get_int("steps", 5);
  EvalFlags flags = eval_flags_from_args(args);
  const bool progress = args.has("progress");
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  check_sweep_range(from, to, steps);

  // Probe the name before evaluating so a typo names the flag.
  core::SystemConfig probe = base;
  if (!core::set_parameter(probe, param, from)) {
    err << "unknown --param '" << param << "'\n";
    return kExitUsage;
  }

  engine::Grid grid = engine::parameter_sweep(
      base, param, engine::spaced_points(from, to, steps, /*log_scale=*/true),
      {configuration}, method);
  grid.simulation = std::move(simulation);
  std::optional<obs::ProgressMeter> meter;
  if (progress) {
    meter.emplace(err, "cells",
                  grid.points.size() * grid.configurations.size());
    flags.options.progress = &*meter;
  }
  const engine::ResultSet results = engine::evaluate(grid, flags.options);
  if (meter) meter->finish();
  switch (flags.format) {
    case report::OutputFormat::kTable:
      out << core::name(configuration) << ", sweeping " << param << ":\n";
      engine::sweep_table(results).print(out);
      break;
    case report::OutputFormat::kCsv:
      engine::sweep_table(results).print_csv(out);
      break;
    case report::OutputFormat::kJson:
      engine::write_json(results, out,
                         engine::JsonOptions{flags.cache_stats});
      break;
  }
  maybe_cache_footer(flags, results, out);
  return report_failures(results, err);
}

int run_sweep(const Args& args, std::ostream& out, std::ostream& err) {
  const core::Configuration configuration = configuration_from_args(args);
  const core::Method method = method_from_args(args);
  const core::SystemConfig base = config_from_args(args);
  return run_grid_sweep(args, base, configuration, method, std::nullopt, out,
                        err);
}

int run_availability(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig sys = config_from_args(args);
  const core::Configuration configuration = configuration_from_args(args);
  const double restore_hours = args.get_double("restore-hours", 168.0);
  // The restore rate is 1/restore-hours, so a subnormal value would
  // make it infinite.
  if (!(restore_hours > 0.0) || !std::isfinite(restore_hours) ||
      !std::isfinite(1.0 / restore_hours)) {
    invalid_flag("restore-hours", "must be finite and > 0, with a finite "
                                  "reciprocal");
  }
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const core::Analyzer analyzer(sys);
  // Availability needs the underlying chain; the analyzer rebuilds it
  // from the same parameters analyze() uses.
  const auto built = analyzer.try_build_chain(configuration);
  if (!built.has_value()) return report_usage_error(built.error(), err);
  const auto result = models::AvailabilityModel::analyze(
      built.value().chain, built.value().healthy, Hours(restore_hours));
  // Fixed notation stops being readable in the millions of hours.
  const std::string restore_time = restore_hours < 1e6
                                       ? fixed(restore_hours, 1)
                                       : sci(restore_hours);
  out << "configuration:       " << core::name(configuration) << "\n"
      << "MTTDL:               " << human_hours(result.mttdl.value()) << "\n"
      << "restore time:        " << restore_time << " h\n"
      << "availability:        " << fixed(result.availability * 100.0, 9)
      << " %\n"
      << "downtime:            " << sci(result.downtime_minutes_per_year)
      << " min/yr\n"
      << "degraded (rebuild):  " << fixed(result.degraded_fraction * 100.0, 3)
      << " % of time\n";
  return 0;
}

int run_chain(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig sys = config_from_args(args);
  const core::Configuration configuration = configuration_from_args(args);
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const auto built = core::Analyzer(sys).try_build_chain(configuration);
  if (!built.has_value()) return report_usage_error(built.error(), err);
  ctmc::DotOptions options;
  options.graph_name = core::name(configuration);
  ctmc::write_dot(built.value().chain, out, options);
  return 0;
}

int run_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig system = config_from_args(args);
  const core::Configuration configuration = configuration_from_args(args);
  engine::SimSpec spec;
  spec.trials = args.get_int("trials", 4000);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 24141));
  spec.options.jobs = args.get_int("jobs", 1);
  spec.options.ci_target = args.get_double("ci-target", 0.0);
  spec.options.chunk_trials = args.get_int("chunk", 256);
  spec.options.max_trials = args.get_int("max-trials", spec.options.max_trials);
  if (std::optional<Error> bad = sim::check(spec.options, spec.trials)) {
    invalid_flag(*bad);
  }

  // With --param the command becomes a Monte-Carlo sweep through the
  // engine; --jobs then parallelizes across cells (each cell runs its
  // trials inline, so the flag never double-subscribes the machine).
  if (args.has("param")) {
    return run_grid_sweep(args, system, configuration,
                          core::Method::kExactChain, std::move(spec), out,
                          err);
  }

  const bool progress = args.has("progress");
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  std::optional<obs::ProgressMeter> meter;
  if (progress) {
    // Total = whole chunks needed; in adaptive mode the trial cap is an
    // upper bound (the meter's final line reports actual chunks).
    const int per_chunk = spec.options.chunk_trials;
    const int bound =
        spec.options.ci_target > 0.0 ? spec.options.max_trials : spec.trials;
    meter.emplace(err, "chunks",
                  static_cast<std::uint64_t>((bound + per_chunk - 1) /
                                             per_chunk));
    spec.options.progress = &*meter;
  }
  const core::Analyzer analyzer(system);
  const double analytic = analyzer.mttdl(configuration).value();
  // Single-cell grid through the same engine as the sweeps: the cell's
  // seed is the base seed and the intra-cell jobs/progress are honored,
  // so the estimate is bit-identical to the historical direct call.
  engine::Grid grid = engine::single_point(system, {configuration});
  grid.simulation = spec;
  const engine::ResultSet results =
      engine::evaluate(grid, {.on_error = engine::OnError::kSkip});
  if (meter) meter->finish();
  if (!results.ok(0, 0)) {  // e.g. no trial saw a loss: non_finite_result
    out << "configuration:     " << core::name(configuration) << "\n";
    return report_failures(results, err);
  }
  const sim::MttdlEstimate& estimate = results.sim_at(0, 0).estimate;
  out << "configuration:     " << core::name(configuration) << "\n"
      << "trials:            " << estimate.trials << " (jobs "
      << spec.options.jobs << ", chunk " << spec.options.chunk_trials
      << ", seed " << spec.seed << ")\n"
      << "simulated MTTDL:   " << sci(estimate.mean_hours) << " h\n"
      << "95% CI:            [" << sci(estimate.ci95_low_hours) << ", "
      << sci(estimate.ci95_high_hours) << "] h (±"
      << fixed(estimate.relative_half_width() * 100.0, 2) << "%)\n"
      << "analytic MTTDL:    " << sci(analytic) << " h ("
      << (estimate.covers(analytic) ? "inside" : "OUTSIDE") << " the CI)\n"
      << "sim/analytic:      " << fixed(estimate.mean_hours / analytic, 3)
      << "\n";
  return 0;
}

/// `nsrel diff A.json B.json`: compare two written resultset documents.
int run_diff(const Args& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string>& paths = args.positionals();
  report::DiffOptions options;
  options.abs_tol = args.get_double("abs-tol", 0.0);
  options.rel_tol = args.get_double("rel-tol", 0.0);
  const report::OutputFormat format =
      report::parse_output_format(args.get_string("format", "table"));
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (paths.size() != 2) {
    err << "diff requires exactly two files: nsrel diff A.json B.json\n";
    return kExitUsage;
  }
  if (options.abs_tol < 0.0 || options.rel_tol < 0.0) {
    throw ContractViolation("--abs-tol and --rel-tol must be >= 0");
  }

  // Unreadable or malformed inputs are usage-class failures (exit 4):
  // the caller named files that are not comparable v3 documents.
  std::vector<report::ResultSetDoc> docs;
  for (const std::string& path : paths) {
    const std::optional<std::string> text = read_file(path, err);
    if (!text.has_value()) return kExitUsage;
    Expected<report::ResultSetDoc> doc = report::read_resultset_json(*text);
    if (!doc.has_value()) {
      err << "error: " << path << ": " << doc.error().message() << "\n";
      return kExitUsage;
    }
    docs.push_back(std::move(doc.value()));
  }

  const Expected<report::DiffReport> compared =
      report::diff_resultsets(docs[0], docs[1], options);
  if (!compared.has_value()) {
    err << "error: " << compared.error().message() << "\n";
    return kExitUsage;
  }
  const report::DiffReport& drift = compared.value();
  switch (format) {
    case report::OutputFormat::kTable:
      if (drift.clean()) {
        out << "no drift: " << drift.cells << " cell(s) compared\n";
      } else {
        report::diff_table(drift).print(out);
        out << drift.rows.size() << " drifting field(s) across "
            << drift.cells << " cell(s)\n";
      }
      break;
    case report::OutputFormat::kCsv:
      report::diff_table(drift).print_csv(out);
      break;
    case report::OutputFormat::kJson:
      report::write_diff_json(drift, options, out);
      break;
  }
  return drift.clean() ? kExitOk : kExitPartialResults;
}

/// `nsrel events RUN.ndjson`: render a flight-recorder journal written
/// by --events (or a scenario's [output] events key) as a timeline or
/// the repair batches rollup.
int run_events(const Args& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string>& paths = args.positionals();
  const report::OutputFormat format =
      report::parse_output_format(args.get_string("format", "table"));
  const std::string view = args.get_string("view", "timeline");
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (paths.size() != 1) {
    err << "events requires exactly one journal file: "
           "nsrel events RUN.ndjson\n";
    return kExitUsage;
  }
  if (view != "timeline" && view != "batches") {
    err << "unknown --view '" << view << "' (use timeline|batches)\n";
    return kExitUsage;
  }

  const std::optional<std::string> text = read_file(paths[0], err);
  if (!text.has_value()) return kExitUsage;
  Expected<report::EventsDoc> doc = report::read_events_ndjson(*text);
  if (!doc.has_value()) {
    err << "error: " << paths[0] << ": " << doc.error().message() << "\n";
    return kExitUsage;
  }
  if (format == report::OutputFormat::kJson) {
    report::write_events_json(doc.value(), out);
    return kExitOk;
  }
  const report::Table table = view == "batches"
                                  ? report::events_batches_table(doc.value())
                                  : report::events_timeline_table(doc.value());
  if (format == report::OutputFormat::kCsv) {
    table.print_csv(out);
  } else {
    table.print(out);
  }
  return kExitOk;
}

/// `nsrel report A.json B.ndjson ...`: aggregate metrics snapshots and
/// events journals across runs into one matrix with an exact total.
int run_report(const Args& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string>& paths = args.positionals();
  const report::OutputFormat format =
      report::parse_output_format(args.get_string("format", "table"));
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (paths.empty()) {
    err << "report requires at least one metrics or events document: "
           "nsrel report A.json B.ndjson ...\n";
    return kExitUsage;
  }

  std::vector<report::RunDoc> runs;
  for (const std::string& path : paths) {
    const std::optional<std::string> text = read_file(path, err);
    if (!text.has_value()) return kExitUsage;
    Expected<report::RunDoc> doc = report::read_run_document(path, *text);
    if (!doc.has_value()) {
      err << "error: " << doc.error().message() << "\n";
      return kExitUsage;
    }
    runs.push_back(std::move(doc.value()));
  }
  const Expected<report::Summary> summary = report::summarize(std::move(runs));
  if (!summary.has_value()) {
    err << "error: " << summary.error().message() << "\n";
    return kExitUsage;
  }
  switch (format) {
    case report::OutputFormat::kTable:
      report::report_table(summary.value()).print(out);
      break;
    case report::OutputFormat::kCsv:
      report::report_table(summary.value()).print_csv(out);
      break;
    case report::OutputFormat::kJson:
      report::write_report_json(summary.value(), out);
      break;
  }
  return kExitOk;
}

int run_provision(const Args& args, std::ostream& out, std::ostream& err) {
  const core::SystemConfig sys = config_from_args(args);
  const double years = args.get_double("years", 5.0);
  const double confidence = args.get_double("confidence", 0.95);
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (!(years > 0.0) || !std::isfinite(years * kHoursPerYear)) {
    invalid_flag("years", "must be finite and > 0");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    invalid_flag("confidence", "must be in (0, 1)");
  }

  placement::ProvisioningPlanner::Params p;
  p.nodes = sys.node_set_size;
  p.drives_per_node = sys.drives_per_node;
  p.node_failures_per_hour = rate_of(sys.node_mttf).value();
  p.drive_failures_per_hour = rate_of(sys.drive.mttf).value();
  p.service_life_hours = years * kHoursPerYear;
  const placement::ProvisioningPlanner planner(p);

  const int spares = planner.spares_needed(confidence);
  out << "service life:          " << fixed(years, 1) << " years\n"
      << "expected loss:         "
      << fixed(planner.expected_node_equivalents_lost(), 1)
      << " node-equivalents\n"
      << "spares for " << fixed(confidence * 100.0, 0)
      << "% confidence: " << spares << " of " << sys.node_set_size
      << " nodes\n"
      << "max initial utilization: "
      << fixed(100.0 * planner.max_initial_utilization(confidence), 1)
      << "% (paper baseline: 75%)\n";
  return 0;
}

int run_scenario_command(const Args& args, std::ostream& out,
                         std::ostream& err) {
  const std::string path = args.get_string("file", "");
  const bool jobs_given = args.has("jobs");
  const int jobs = jobs_given ? args.get_int("jobs", 1) : 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (path.empty()) {
    err << "scenario requires --file <path>\n";
    return kExitUsage;
  }
  if (jobs < 0) invalid_flag("jobs", "must be >= 0 (0 = all cores)");
  const std::optional<std::string> text = read_file(path, err);
  if (!text.has_value()) return kExitUsage;
  scenario::Scenario scenario = scenario::parse_scenario(*text);
  if (jobs_given) scenario.jobs = jobs;  // command line beats [output] jobs
  const scenario::RunOutcome outcome = scenario::run_scenario(scenario, out);
  if (outcome.error_count != 0) {
    err << "warning: " << outcome.error_count << " of "
        << outcome.ok_count + outcome.error_count << " cell(s) failed\n";
    return kExitPartialResults;
  }
  return kExitOk;
}

}  // namespace

core::SystemConfig config_from_args(const Args& args) {
  core::SystemConfig config = core::SystemConfig::baseline();
  for (const std::string& name : core::parameter_names()) {
    if (!args.has(name)) continue;
    const double value = core::is_count_parameter(name)
                             ? args.get_int(name, 0)
                             : args.get_double(name, 0.0);
    (void)core::set_parameter(config, name, value);
  }
  if (std::optional<Error> bad = core::check(config)) invalid_flag(*bad);
  return config;
}

core::Configuration configuration_from_args(const Args& args) {
  core::Configuration configuration;
  configuration.internal =
      core::parse_scheme(args.get_string("scheme", "raid5"));
  configuration.node_fault_tolerance = args.get_int("ft", 2);
  return configuration;
}

namespace {

/// Writes the settled registry as nsrel-metrics-v1 JSON (--metrics-out).
bool write_metrics_file(const std::string& path, std::ostream& err) {
  std::ofstream file(path);
  if (file) {
    report::write_metrics_json(obs::MetricsSnapshot::capture(), file);
  }
  if (!file) {
    err << "cannot write metrics file '" << path << "'\n";
    return false;
  }
  return true;
}

/// `nsrel version` / `--version` anywhere: build identity, exit 0.
int run_version(std::ostream& out) {
  const obs::BuildInfo& build = obs::build_info();
  out << obs::version_line() << "\n"
      << "  semver:     " << build.semver << "\n"
      << "  git SHA:    " << build.git_sha << "\n"
      << "  compiler:   " << build.compiler << "\n"
      << "  build type: " << build.build_type << "\n";
  return kExitOk;
}

int dispatch_command(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& command = args.command();
  if (command.empty()) {
    out << kUsage;
    return kExitUsage;
  }
  if (command == "analyze") return run_analyze(args, out, err);
  if (command == "compare") return run_compare(args, out, err);
  if (command == "rebuild") return run_rebuild(args, out, err);
  if (command == "sweep") return run_sweep(args, out, err);
  if (command == "availability") return run_availability(args, out, err);
  if (command == "scenario") return run_scenario_command(args, out, err);
  if (command == "simulate") return run_simulate(args, out, err);
  if (command == "diff") return run_diff(args, out, err);
  if (command == "events") return run_events(args, out, err);
  if (command == "report") return run_report(args, out, err);
  if (command == "chain") return run_chain(args, out, err);
  if (command == "provision") return run_provision(args, out, err);
  err << "unknown command '" << command << "' (try: nsrel help)\n";
  return kExitUsage;
}

}  // namespace

int dispatch(const Args& args, std::ostream& out, std::ostream& err) {
  // --version anywhere wins (GNU convention), before any other flag is
  // validated, so `nsrel sweep --version` still just prints and exits 0.
  if (args.command() == "version" || args.has("version")) {
    return run_version(out);
  }
  // --help likewise: usage on stdout, exit 0, whatever else was given.
  if (args.command() == "help" || args.has("help")) {
    out << kUsage;
    return kExitOk;
  }
  // One observability session per command: --trace/--metrics/--events/
  // --metrics-out are global flags, consumed here so every command
  // accepts them.
  const std::string events_path = args.get_string("events", "");
  const std::string metrics_path = args.get_string("metrics-out", "");
  obs::Session session({args.get_string("trace", ""), args.has("metrics"),
                        /*registry=*/!metrics_path.empty(),
                        /*journal=*/!events_path.empty()});
  int rc;
  try {
    rc = dispatch_command(args, out, err);
  } catch (const ContractViolation& violation) {
    err << "error: " << violation.what() << "\n";
    rc = kExitUsage;
  } catch (const ErrorException& failure) {
    err << "error: " << failure.what() << "\n";
    rc = kExitInternal;
  } catch (const std::exception& unexpected) {
    err << "internal error: " << unexpected.what() << "\n";
    rc = kExitInternal;
  }
  // The trace file and metrics block are written even when the command
  // failed — a trace of a failing run is the one you want to look at.
  if (!session.finish(err) && rc == kExitOk) rc = kExitUsage;
  // Document files go out after finish(): the work is joined and the
  // recorder settled, and it stays valid until the next session.
  if (!events_path.empty() && !report::write_events_file(events_path)) {
    err << "cannot write events file '" << events_path << "'\n";
    if (rc == kExitOk) rc = kExitUsage;
  }
  if (!metrics_path.empty() && !write_metrics_file(metrics_path, err) &&
      rc == kExitOk) {
    rc = kExitUsage;
  }
  return rc;
}

int dispatch(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  try {
    return dispatch(Args(argc, argv), out, err);
  } catch (const ContractViolation& violation) {
    err << "error: " << violation.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& unexpected) {
    err << "internal error: " << unexpected.what() << "\n";
    return kExitInternal;
  }
}

}  // namespace nsrel::cli
