// Evaluation grids: the declarative input of the evaluation engine.
//
// A grid is the cartesian product of N named parameter axes — flattened
// into a list of fully-built system-configuration points (rows; the last
// axis varies fastest) — crossed with a list of redundancy configurations
// (columns) and a solution method. N = 0 is a single evaluation point
// (compare/analyze), N = 1 the classic one-parameter sweep, N = 2 a
// drive-MTTF × link-Gbps heat map, and so on. Every front-end — CLI
// sweep/compare/analyze/simulate, scenario runner, figure benches —
// describes its work as a Grid and hands it to engine::evaluate instead
// of looping over Analyzer itself.
//
// Cells are analytic (core::AnalysisResult via the solve stack) by
// default; setting `simulation` turns every cell into a Monte-Carlo
// estimate (sim::SimEstimate) instead, evaluated through the same
// jobs-invariant fan-out with a deterministic per-cell seed stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/system_config.hpp"
#include "sim/parallel.hpp"

namespace nsrel::engine {

/// One named sweep axis: the swept values and their rendered labels
/// (parallel vectors, one entry per value).
struct Axis {
  std::string name;
  std::vector<double> values;
  std::vector<std::string> labels;
};

/// One row of the grid: a fully-built system plus the swept coordinates
/// it came from (one per axis, same order; empty for 0-axis grids) and
/// the label it renders under.
struct GridPoint {
  core::SystemConfig system;
  std::vector<double> coords;
  std::string label;
};

/// Monte-Carlo cell specification: when set on a Grid, every cell runs
/// `trials` trials of the configuration's storage simulator instead of
/// the analytic solve. Cell (flat index i) draws from seed
/// `cell_seed(seed, i)` — a pure function of the grid, never of the
/// thread schedule — so results are bit-identical at any jobs count.
struct SimSpec {
  int trials = 4000;
  std::uint64_t seed = 0x5EEDULL;
  /// chunk_trials / ci_target / max_trials apply per cell. `jobs` is the
  /// *intra-cell* worker count and is honored only for single-cell grids
  /// (the classic `nsrel simulate` shape); multi-cell grids parallelize
  /// across cells instead and run each cell's trials inline. Either way
  /// the estimates are bit-identical (sim::run_trials is jobs-invariant).
  sim::ParallelOptions options;
};

/// The deterministic per-cell seed stream: cell 0 uses the base seed
/// itself (so a single-cell simulate is exactly the historical
/// single-estimate run), later cells draw independent splitmix-derived
/// streams.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t seed, std::size_t index);

struct Grid {
  /// The sweep axes, outermost first; empty for single-point grids.
  std::vector<Axis> axes;
  /// Flattened cartesian product of the axes (last axis fastest), or a
  /// single unlabeled point for 0-axis grids.
  std::vector<GridPoint> points;
  std::vector<core::Configuration> configurations;
  core::Method method = core::Method::kExactChain;
  /// When set, cells are Monte-Carlo estimates instead of analytic
  /// solves (see SimSpec).
  std::optional<SimSpec> simulation;

  [[nodiscard]] bool has_axis() const { return !axes.empty(); }
  [[nodiscard]] bool is_simulation() const { return simulation.has_value(); }

  /// The header of the row-label column: the axis names joined with
  /// " x " ("drive-mttf x link-gbps"), or the single axis name — which
  /// keeps 1-axis output byte-identical to the historical single-axis
  /// grid. Empty for 0-axis grids.
  [[nodiscard]] std::string axis_header() const;
};

/// Renders a swept value into its row label; defaults to sci(x, 4).
using AxisFormatter = std::function<std::string(double)>;

/// One axis of a cartesian sweep over canonical parameter names.
struct AxisSpec {
  std::string parameter;
  std::vector<double> values;
  AxisFormatter format;  ///< optional; defaults to sci(x, 4)
};

/// The fully general N-axis builder: one grid point per element of the
/// cartesian product of the axes' values (last axis fastest), with the
/// caller's factory building each point's SystemConfig from its
/// coordinate vector (one value per axis, axis order). Point labels join
/// the per-axis labels with " x " (a single axis keeps its label as-is).
/// Preconditions: at least one axis, no axis empty, configurations
/// non-empty.
[[nodiscard]] Grid custom_cartesian(
    std::vector<Axis> axes,
    const std::function<core::SystemConfig(const std::vector<double>&)>&
        make_system,
    std::vector<core::Configuration> configurations,
    core::Method method = core::Method::kExactChain);

/// Cartesian sweep over canonical parameter names (core::set_parameter):
/// each point applies every axis's value to `base` in axis order. Throws
/// ContractViolation on an unknown parameter name or a value the
/// resulting SystemConfig rejects.
[[nodiscard]] Grid cartesian_sweep(
    const core::SystemConfig& base, const std::vector<AxisSpec>& axes,
    std::vector<core::Configuration> configurations,
    core::Method method = core::Method::kExactChain);

/// Builds one grid point per swept SystemConfig produced by the caller's
/// factory — the single-axis form the benches use (several fields may
/// change together). Thin wrapper over custom_cartesian.
[[nodiscard]] Grid custom_sweep(
    const std::string& axis, const std::vector<double>& values,
    const std::function<core::SystemConfig(double)>& make_system,
    std::vector<core::Configuration> configurations,
    core::Method method = core::Method::kExactChain,
    const AxisFormatter& format_x = {});

/// Sweeps one canonical parameter (core::set_parameter names) over the
/// given values. Thin wrapper over cartesian_sweep. Throws
/// ContractViolation on an unknown parameter name or a value the
/// resulting SystemConfig rejects.
[[nodiscard]] Grid parameter_sweep(
    const core::SystemConfig& base, const std::string& parameter,
    const std::vector<double>& values,
    std::vector<core::Configuration> configurations,
    core::Method method = core::Method::kExactChain,
    const AxisFormatter& format_x = {});

/// A grid with exactly one point and no swept axis (compare/analyze).
[[nodiscard]] Grid single_point(
    const core::SystemConfig& system,
    std::vector<core::Configuration> configurations,
    core::Method method = core::Method::kExactChain,
    const std::string& label = "events/PB-yr");

/// `steps` points from `from` to `to` inclusive, log- or linearly
/// spaced. Preconditions: steps >= 2; log scale needs 0 < from < to.
[[nodiscard]] std::vector<double> spaced_points(double from, double to,
                                                int steps, bool log_scale);

}  // namespace nsrel::engine
