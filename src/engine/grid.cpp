#include "engine/grid.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace nsrel::engine {

namespace {

std::string default_label(double x) { return sci(x, 4); }

/// Joins per-axis labels with " x "; a single label passes through
/// unchanged, keeping 1-axis output byte-identical to the historical
/// single-axis grid.
std::string join_labels(const std::vector<std::string>& parts) {
  std::string joined;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) joined += " x ";
    joined += parts[i];
  }
  return joined;
}

}  // namespace

std::uint64_t cell_seed(std::uint64_t seed, std::size_t index) {
  if (index == 0) return seed;
  return stream_seed(seed, static_cast<std::uint64_t>(index));
}

std::string Grid::axis_header() const {
  std::vector<std::string> names;
  names.reserve(axes.size());
  for (const Axis& axis : axes) names.push_back(axis.name);
  return join_labels(names);
}

Grid custom_cartesian(
    std::vector<Axis> axes,
    const std::function<core::SystemConfig(const std::vector<double>&)>&
        make_system,
    std::vector<core::Configuration> configurations, core::Method method) {
  NSREL_EXPECTS(!axes.empty());
  NSREL_EXPECTS(!configurations.empty());
  std::size_t total = 1;
  for (const Axis& axis : axes) {
    NSREL_EXPECTS(!axis.name.empty());
    NSREL_EXPECTS(!axis.values.empty());
    NSREL_EXPECTS(axis.labels.size() == axis.values.size());
    total *= axis.values.size();
  }
  Grid grid;
  grid.axes = std::move(axes);
  grid.configurations = std::move(configurations);
  grid.method = method;
  grid.points.reserve(total);
  // Odometer over the axes, last axis fastest (row-major).
  std::vector<std::size_t> index(grid.axes.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    GridPoint point;
    point.coords.reserve(grid.axes.size());
    std::vector<std::string> labels;
    labels.reserve(grid.axes.size());
    for (std::size_t a = 0; a < grid.axes.size(); ++a) {
      point.coords.push_back(grid.axes[a].values[index[a]]);
      labels.push_back(grid.axes[a].labels[index[a]]);
    }
    point.system = make_system(point.coords);
    point.label = join_labels(labels);
    grid.points.push_back(std::move(point));
    for (std::size_t a = grid.axes.size(); a-- > 0;) {
      if (++index[a] < grid.axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return grid;
}

Grid cartesian_sweep(const core::SystemConfig& base,
                     const std::vector<AxisSpec>& axes,
                     std::vector<core::Configuration> configurations,
                     core::Method method) {
  NSREL_EXPECTS(!axes.empty());
  std::vector<Axis> built;
  built.reserve(axes.size());
  for (const AxisSpec& spec : axes) {
    Axis axis;
    axis.name = spec.parameter;
    axis.values = spec.values;
    axis.labels.reserve(spec.values.size());
    for (const double x : spec.values) {
      axis.labels.push_back(spec.format ? spec.format(x) : default_label(x));
    }
    built.push_back(std::move(axis));
  }
  return custom_cartesian(
      std::move(built),
      [&](const std::vector<double>& coords) {
        core::SystemConfig system = base;
        for (std::size_t a = 0; a < axes.size(); ++a) {
          if (!core::set_parameter(system, axes[a].parameter, coords[a])) {
            throw ContractViolation("unknown sweep parameter '" +
                                    axes[a].parameter + "'");
          }
        }
        return system;
      },
      std::move(configurations), method);
}

Grid custom_sweep(const std::string& axis, const std::vector<double>& values,
                  const std::function<core::SystemConfig(double)>& make_system,
                  std::vector<core::Configuration> configurations,
                  core::Method method, const AxisFormatter& format_x) {
  NSREL_EXPECTS(!axis.empty());
  NSREL_EXPECTS(!values.empty());
  Axis built;
  built.name = axis;
  built.values = values;
  built.labels.reserve(values.size());
  for (const double x : values) {
    built.labels.push_back(format_x ? format_x(x) : default_label(x));
  }
  std::vector<Axis> axes;
  axes.push_back(std::move(built));
  return custom_cartesian(
      std::move(axes),
      [&](const std::vector<double>& coords) { return make_system(coords[0]); },
      std::move(configurations), method);
}

Grid parameter_sweep(const core::SystemConfig& base,
                     const std::string& parameter,
                     const std::vector<double>& values,
                     std::vector<core::Configuration> configurations,
                     core::Method method, const AxisFormatter& format_x) {
  AxisSpec spec;
  spec.parameter = parameter;
  spec.values = values;
  spec.format = format_x;
  return cartesian_sweep(base, {spec}, std::move(configurations), method);
}

Grid single_point(const core::SystemConfig& system,
                  std::vector<core::Configuration> configurations,
                  core::Method method, const std::string& label) {
  NSREL_EXPECTS(!configurations.empty());
  Grid grid;
  grid.configurations = std::move(configurations);
  grid.method = method;
  GridPoint point;
  point.system = system;
  point.label = label;
  grid.points.push_back(std::move(point));
  return grid;
}

std::vector<double> spaced_points(double from, double to, int steps,
                                  bool log_scale) {
  NSREL_EXPECTS(steps >= 2);
  NSREL_EXPECTS(log_scale ? (from > 0.0 && to > from) : to > from);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double fraction =
        static_cast<double>(i) / static_cast<double>(steps - 1);
    values.push_back(log_scale ? from * std::pow(to / from, fraction)
                               : from + (to - from) * fraction);
  }
  return values;
}

}  // namespace nsrel::engine
