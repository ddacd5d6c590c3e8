#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"

namespace nsrel::report {

namespace {

/// Structural (shape) mismatch: the documents are not comparable runs.
[[nodiscard]] Error shape_error(const std::string& detail) {
  return Error{ErrorCode::kInvalidParameter, "report.diff", detail};
}

/// Collects one cell's drifting fields.
struct CellDiff {
  const CellDoc& cell;
  const std::string& configuration_name;
  const DiffOptions& options;
  std::vector<DriftRow>& rows;

  void field(const std::string& name, double a, double b) {
    const double magnitude = std::max(std::abs(a), std::abs(b));
    const double delta = std::abs(a - b);
    if (a == b || delta <= options.abs_tol + options.rel_tol * magnitude) {
      return;
    }
    DriftRow row = base(name);
    row.a = json_number(a);
    row.b = json_number(b);
    row.numeric = true;
    row.a_value = a;
    row.b_value = b;
    row.abs_delta = delta;
    row.rel_delta = magnitude > 0.0 ? delta / magnitude : 0.0;
    rows.push_back(std::move(row));
  }

  void field(const std::string& name, const std::string& a,
             const std::string& b) {
    if (a == b) return;
    DriftRow row = base(name);
    row.a = a;
    row.b = b;
    rows.push_back(std::move(row));
  }

  [[nodiscard]] DriftRow base(const std::string& name) const {
    DriftRow row;
    row.point = cell.point;
    row.configuration = cell.configuration;
    row.configuration_name = configuration_name;
    row.field = name;
    return row;
  }
};

/// Indexed by CellDoc::data's alternative.
constexpr std::string_view kKindNames[] = {kAnalyticKind, kSimKind,
                                           kCellErrorKey};

/// Compares one cell kind's fields as its schema list names them, keys
/// prefixed by `prefix`. Integer fields (a sim estimate's trials and
/// seed) are the estimate's identity, not measurements: they come first
/// and compare exactly, tolerances do not apply. Strings compare exactly
/// in list order; doubles under the tolerances.
template <typename Cell, typename Fields>
void diff_fields(CellDiff& diff, const Cell& a, const Cell& b,
                 const Fields& fields, const std::string& prefix = "") {
  for (const bool identity : {true, false}) {
    for (const CellField<Cell>& field : fields) {
      std::visit(
          [&](auto member) {
            using T = std::remove_cvref_t<decltype(a.*member)>;
            if (std::is_integral_v<T> != identity) return;
            const std::string name = prefix + std::string(field.key);
            if constexpr (std::is_integral_v<T>) {
              diff.field(name, std::to_string(a.*member),
                         std::to_string(b.*member));
            } else {
              diff.field(name, a.*member, b.*member);
            }
          },
          field.member);
    }
  }
}

void diff_cell(const CellDoc& a, const CellDoc& b,
               const std::string& configuration_name,
               const DiffOptions& options, std::vector<DriftRow>& rows) {
  CellDiff diff{a, configuration_name, options, rows};
  if (a.data.index() != b.data.index()) {
    diff.field(std::string(kCellKindKey),
               std::string(kKindNames[a.data.index()]),
               std::string(kKindNames[b.data.index()]));
    return;
  }
  if (const auto* error_a = std::get_if<ErrorCellDoc>(&a.data)) {
    diff_fields(diff, *error_a, std::get<ErrorCellDoc>(b.data),
                kErrorCellFields, std::string(kCellErrorKey) + ".");
    return;
  }
  if (const auto* sim_a = std::get_if<SimCellDoc>(&a.data)) {
    diff_fields(diff, *sim_a, std::get<SimCellDoc>(b.data), kSimCellFields);
    return;
  }
  const auto& analytic_a = std::get<AnalyticCellDoc>(a.data);
  const auto& analytic_b = std::get<AnalyticCellDoc>(b.data);
  diff_fields(diff, analytic_a, analytic_b, kAnalyticCellFields);
  if (analytic_a.has_internal_raid != analytic_b.has_internal_raid) {
    diff.field("internal_raid_fields",
               analytic_a.has_internal_raid ? "present" : "absent",
               analytic_b.has_internal_raid ? "present" : "absent");
    return;
  }
  if (analytic_a.has_internal_raid) {
    diff_fields(diff, analytic_a, analytic_b, kInternalRaidCellFields);
  }
}

}  // namespace

[[nodiscard]] Expected<DiffReport> diff_resultsets(const ResultSetDoc& a,
                                     const ResultSetDoc& b,
                                     const DiffOptions& options) {
  obs::Span span(obs::probe::kSpanDiff, obs::probe::kSpanCategoryReport);
  if (a.method != b.method) {
    return shape_error("method mismatch: '" + a.method + "' vs '" + b.method +
                       "'");
  }
  if (a.axes.size() != b.axes.size()) {
    return shape_error("axis count mismatch: " + std::to_string(a.axes.size()) +
                       " vs " + std::to_string(b.axes.size()));
  }
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    if (a.axes[i].name != b.axes[i].name) {
      return shape_error("axis " + std::to_string(i) + " mismatch: '" +
                         a.axes[i].name + "' vs '" + b.axes[i].name + "'");
    }
  }
  if (a.points.size() != b.points.size()) {
    return shape_error(
        "point count mismatch: " + std::to_string(a.points.size()) + " vs " +
        std::to_string(b.points.size()));
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].label != b.points[i].label ||
        a.points[i].x != b.points[i].x) {
      return shape_error("point " + std::to_string(i) + " mismatch: '" +
                         a.points[i].label + "' vs '" + b.points[i].label +
                         "'");
    }
  }
  if (a.configurations != b.configurations) {
    return shape_error("configuration list mismatch");
  }
  // Comparable by shape; the readers guarantee both cell lists are
  // complete and row-major, so cells align index-for-index.
  DiffReport report;
  report.cells = a.cells.size();
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    diff_cell(a.cells[i], b.cells[i],
              a.configurations[a.cells[i].configuration], options,
              report.rows);
  }
  if (span.armed()) {
    span.arg("cells", static_cast<std::uint64_t>(report.cells));
    span.arg("drift", static_cast<std::uint64_t>(report.rows.size()));
  }
  return report;
}

Table diff_table(const DiffReport& report) {
  Table table(
      {"point", "configuration", "field", "a", "b", "|delta|", "rel"});
  for (const DriftRow& row : report.rows) {
    table.add_row({std::to_string(row.point), row.configuration_name,
                   row.field, row.a, row.b,
                   row.numeric ? json_number(row.abs_delta) : "-",
                   row.numeric ? json_number(row.rel_delta) : "-"});
  }
  return table;
}

void write_diff_json(const DiffReport& report, const DiffOptions& options,
                     std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("nsrel-diff-v1");
  json.key("abs_tol").value(options.abs_tol);
  json.key("rel_tol").value(options.rel_tol);
  json.key("cells").value(static_cast<std::uint64_t>(report.cells));
  json.key("clean").value(report.clean());
  json.key("drift").begin_array();
  for (const DriftRow& row : report.rows) {
    json.begin_object();
    json.key("point").value(row.point);
    json.key("configuration").value(row.configuration);
    json.key("configuration_name").value(row.configuration_name);
    json.key("field").value(row.field);
    if (row.numeric) {
      json.key("a").value(row.a_value);
      json.key("b").value(row.b_value);
      json.key("abs_delta").value(row.abs_delta);
      json.key("rel_delta").value(row.rel_delta);
    } else {
      json.key("a").value(row.a);
      json.key("b").value(row.b);
      json.key("abs_delta").null();
      json.key("rel_delta").null();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace nsrel::report
