#include "engine/render.hpp"

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "report/resultset_doc.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace nsrel::engine {

namespace {

/// The table marker for a failed cell: "!" plus the stable error code
/// ("!singular_generator"). Distinct from any numeric rendering, stable
/// across runs, and identical at any jobs count.
std::string failure_marker(const ResultSet::Cell& cell) {
  return std::string("!") + error_code_name(cell.error().code);
}

/// The label-column header shared by the row-oriented renderers: the
/// joined axis names, or "metric" for single-point grids.
std::string label_header(const Grid& grid) {
  return grid.has_axis() ? grid.axis_header() : "metric";
}

}  // namespace

report::Table events_table(const ResultSet& results,
                           const core::ReliabilityTarget* mark_target) {
  obs::Span span(obs::probe::kSpanRender, obs::probe::kSpanCategoryEngine);
  span.arg("kind", "events_table");
  const Grid& grid = results.grid();
  NSREL_EXPECTS(!grid.is_simulation());
  std::vector<std::string> headers;
  headers.push_back(label_header(grid));
  for (const auto& configuration : grid.configurations) {
    headers.push_back(core::name(configuration));
  }
  report::Table table(std::move(headers));
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    std::vector<std::string> row{grid.points[p].label};
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      if (!results.ok(p, c)) {
        row.push_back(failure_marker(results.cell(p, c)));
        continue;
      }
      const double events = results.at(p, c).events_per_pb_year;
      row.push_back(sci(events) +
                    (mark_target != nullptr && mark_target->met_by(events)
                         ? " *"
                         : ""));
    }
    table.add_row(std::move(row));
  }
  return table;
}

report::Table sweep_table(const ResultSet& results) {
  obs::Span span(obs::probe::kSpanRender, obs::probe::kSpanCategoryEngine);
  const Grid& grid = results.grid();
  const bool simulated = grid.is_simulation();
  span.arg("kind", simulated ? "sim_sweep_table" : "sweep_table");
  const bool qualify = grid.configurations.size() > 1;
  std::vector<std::string> headers;
  headers.push_back(label_header(grid));
  for (const auto& configuration : grid.configurations) {
    const std::string prefix =
        qualify ? core::name(configuration) + " " : std::string();
    headers.push_back(prefix + (simulated ? "sim MTTDL (h)" : "MTTDL (h)"));
    headers.push_back(prefix + (simulated ? "95% CI (h)" : "events/PB-yr"));
  }
  report::Table table(std::move(headers));
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    std::vector<std::string> row{grid.points[p].label};
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      if (!results.ok(p, c)) {
        const std::string marker = failure_marker(results.cell(p, c));
        row.push_back(marker);
        row.push_back(marker);
      } else if (simulated) {
        const sim::MttdlEstimate& estimate = results.sim_at(p, c).estimate;
        row.push_back(sci(estimate.mean_hours));
        row.push_back(
            sci_interval(estimate.ci95_low_hours, estimate.ci95_high_hours));
      } else {
        const core::AnalysisResult& result = results.at(p, c);
        row.push_back(sci(result.mttdl.value()));
        row.push_back(sci(result.events_per_pb_year));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

report::Table compare_table(const ResultSet& results,
                            const core::ReliabilityTarget& target) {
  obs::Span span(obs::probe::kSpanRender, obs::probe::kSpanCategoryEngine);
  span.arg("kind", "compare_table");
  // This shape has no point-label column: it only makes sense for a
  // single-point grid, and silently rendering point 0 of a larger grid
  // would misattribute the sweep (caught here rather than by callers).
  NSREL_EXPECTS(results.point_count() == 1);
  NSREL_EXPECTS(!results.grid().is_simulation());
  report::Table table({"configuration", "MTTDL", "events/PB-yr", "meets"});
  for (std::size_t c = 0; c < results.configuration_count(); ++c) {
    if (!results.ok(0, c)) {
      const std::string marker = failure_marker(results.cell(0, c));
      table.add_row({core::name(results.grid().configurations[c]), marker,
                     marker, "-"});
      continue;
    }
    const core::AnalysisResult& result = results.at(0, c);
    table.add_row({core::name(results.grid().configurations[c]),
                   human_hours(result.mttdl.value()),
                   sci(result.events_per_pb_year),
                   target.met_by(result) ? "yes" : "NO"});
  }
  return table;
}

report::ResultSetDoc make_document(const ResultSet& results,
                                   const JsonOptions& options) {
  const Grid& grid = results.grid();
  report::ResultSetDoc doc;
  doc.method = core::method_name(grid.method);
  if (options.cache_meta) {
    const core::SolveCache::Stats& stats = results.cache_stats();
    doc.cache = report::CacheMetaDoc{stats.hits, stats.misses,
                                     stats.lookups()};
  }
  doc.axes.reserve(grid.axes.size());
  for (const Axis& axis : grid.axes) doc.axes.push_back({axis.name});
  doc.points.reserve(grid.points.size());
  for (const GridPoint& point : grid.points) {
    doc.points.push_back({point.label, point.coords});
  }
  doc.configurations.reserve(grid.configurations.size());
  for (const auto& configuration : grid.configurations) {
    doc.configurations.push_back(core::name(configuration));
  }
  doc.cells.reserve(results.point_count() * results.configuration_count());
  for (std::size_t p = 0; p < results.point_count(); ++p) {
    for (std::size_t c = 0; c < results.configuration_count(); ++c) {
      report::CellDoc cell;
      cell.point = p;
      cell.configuration = c;
      if (!results.ok(p, c)) {
        const Error& error = results.cell(p, c).error();
        cell.data = report::ErrorCellDoc{error_code_name(error.code),
                                         error.layer, error.detail};
      } else if (results.is_sim(p, c)) {
        const sim::SimEstimate& sim = results.sim_at(p, c);
        cell.data = report::SimCellDoc{sim.estimate.mean_hours,
                                       sim.estimate.stddev_hours,
                                       sim.estimate.stderr_hours,
                                       sim.estimate.ci95_low_hours,
                                       sim.estimate.ci95_high_hours,
                                       sim.estimate.trials,
                                       sim.seed};
      } else {
        const core::AnalysisResult& result = results.at(p, c);
        report::AnalyticCellDoc analytic;
        analytic.mttdl_hours = result.mttdl.value();
        analytic.events_per_system_year = result.events_per_system_year;
        analytic.events_per_pb_year = result.events_per_pb_year;
        analytic.logical_capacity_bytes = result.logical_capacity.value();
        analytic.node_rebuild_hours =
            to_hours(result.rebuild.node_rebuild_time).value();
        analytic.node_rebuild_bottleneck =
            result.rebuild.node_bottleneck == rebuild::Bottleneck::kDisk
                ? "disk"
                : "network";
        if (grid.configurations[c].internal != core::InternalScheme::kNone) {
          analytic.has_internal_raid = true;
          analytic.array_failure_per_hour = result.array_failure_rate.value();
          analytic.sector_error_per_hour = result.sector_error_rate.value();
          analytic.restripe_hours = to_hours(result.rebuild.restripe_time).value();
        }
        cell.data = std::move(analytic);
      }
      doc.cells.push_back(std::move(cell));
    }
  }
  return doc;
}

void write_json(const ResultSet& results, std::ostream& out) {
  write_json(results, out, JsonOptions{});
}

void write_json(const ResultSet& results, std::ostream& out,
                const JsonOptions& options) {
  obs::Span span(obs::probe::kSpanRender, obs::probe::kSpanCategoryEngine);
  span.arg("kind", "json");
  report::write_resultset_json(make_document(results, options), out);
}

}  // namespace nsrel::engine
