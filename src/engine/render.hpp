// Presentation of evaluated grids, separated from evaluation: the same
// ResultSet renders as the scenario/bench events matrix, the CLI's sweep
// and compare tables, the simulate estimate table, or a machine-readable
// JSON document. None of the renderers include scheduling artifacts
// (jobs, cache counters) by default, so rendered bytes are identical at
// any --jobs value. Cache counters appear only behind explicit opt-ins
// (JsonOptions::cache_meta and the CLI's --cache-stats footer),
// documented as schedule-dependent for jobs > 1.
//
// N-axis grids: every row-oriented renderer is axis-order agnostic — it
// walks the flattened points in grid order and uses the point's label
// (the per-axis labels joined with " x ") and Grid::axis_header() for
// the label column, so 1-axis output is byte-identical to the historical
// single-axis renderers and higher-axis grids need no renderer changes.
#pragma once

#include <iosfwd>

#include "core/analyzer.hpp"
#include "engine/engine.hpp"
#include "report/resultset_doc.hpp"
#include "report/table.hpp"

namespace nsrel::engine {

/// Rows = grid points, one column per configuration, cells =
/// events/PB-year. With a non-null `mark_target`, values meeting the
/// target get the " *" suffix (the scenario/bench table convention);
/// pass nullptr for CSV output. Failed cells render as "!" plus the
/// stable error code (e.g. "!singular_generator") in every table shape,
/// byte-identically at any jobs count. Precondition: analytic grid.
[[nodiscard]] report::Table events_table(
    const ResultSet& results, const core::ReliabilityTarget* mark_target);

/// Rows = grid points; per configuration two columns (headers prefixed
/// with the configuration name when the grid has several): "MTTDL (h)"
/// and "events/PB-yr" for an analytic grid, "sim MTTDL (h)" and
/// "95% CI (h)" for a simulation grid. The CLI sweep shape.
[[nodiscard]] report::Table sweep_table(const ResultSet& results);

/// Rows = configurations of the single grid point: configuration, MTTDL,
/// events/PB-yr, meets. The CLI compare shape. Precondition: exactly one
/// grid point (this renderer has no label column to distinguish points)
/// and an analytic grid.
[[nodiscard]] report::Table compare_table(const ResultSet& results,
                                          const core::ReliabilityTarget& target);

/// Opt-in extras for write_json. Defaults add nothing, keeping the
/// document jobs-invariant.
struct JsonOptions {
  /// Emit a "meta": {"cache": {hits, misses, lookups}} object (the
  /// ResultSet's cache_stats()). Off by default because the counters
  /// depend on the thread schedule for jobs > 1.
  bool cache_meta = false;
};

/// The ResultSet as a serializable document (schema nsrel-resultset-v3):
/// what write_json emits, exposed so tests and tools can round-trip
/// through report::write_resultset_json / read_resultset_json without
/// going through a stream.
[[nodiscard]] report::ResultSetDoc make_document(const ResultSet& results,
                                                 const JsonOptions& options);

/// Full structured dump (schema nsrel-resultset-v3): method, axes,
/// points (label + coordinate vector), configuration names, and one
/// record per cell. Every cell carries an "error" field — null on
/// success (a "kind"-tagged analytic or sim record follows), a
/// {code, layer, detail} object on failure. Numbers round-trip exactly
/// through strtod; report::read_resultset_json reads the document back
/// byte-reproducibly.
void write_json(const ResultSet& results, std::ostream& out);
void write_json(const ResultSet& results, std::ostream& out,
                const JsonOptions& options);

}  // namespace nsrel::engine
