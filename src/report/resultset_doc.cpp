#include "report/resultset_doc.hpp"

#include <climits>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "report/field_reader.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

constexpr FieldReader kReader{"report.resultset"};

// --- cell schema walks ------------------------------------------------

template <typename Cell, typename Fields>
void write_fields(JsonWriter& json, const Cell& cell, const Fields& fields) {
  for (const CellField<Cell>& field : fields) {
    std::visit([&](auto member) { json.key(field.key).value(cell.*member); },
               field.member);
  }
}

template <typename Cell, typename Fields>
void read_fields(const JsonValue& object, const std::string& path,
                 const Fields& fields, Cell& cell) {
  for (const CellField<Cell>& field : fields) {
    std::visit(
        [&](auto member) {
          auto& slot = cell.*member;
          using T = std::remove_reference_t<decltype(slot)>;
          if constexpr (std::is_same_v<T, double>) {
            slot = kReader.number(object, path, field.key);
          } else if constexpr (std::is_same_v<T, std::string>) {
            slot = kReader.string(object, path, field.key);
          } else if constexpr (std::is_same_v<T, int>) {
            const std::uint64_t value = kReader.uint(object, path, field.key);
            if (value > static_cast<std::uint64_t>(INT_MAX)) {
              kReader.fail(path + "." + std::string(field.key),
                           "unsigned integer out of range");
            }
            slot = static_cast<int>(value);
          } else {
            slot = kReader.uint(object, path, field.key);
          }
        },
        field.member);
  }
}

/// "<path>.<key>" for the field of `fields` that holds `member`.
template <typename Fields, typename Member>
std::string field_path(const std::string& path, const Fields& fields,
                       Member member) {
  for (const auto& field : fields) {
    if (field.member == decltype(field.member)(member)) {
      return path + "." + std::string(field.key);
    }
  }
  return path;
}

/// `keys` plus the keys of every list: what check_keys allows.
template <typename... Lists>
std::vector<std::string_view> keys_of(std::vector<std::string_view> keys,
                                      const Lists&... lists) {
  (..., [&] { for (const auto& field : lists) keys.push_back(field.key); }());
  return keys;
}

// --- writer -----------------------------------------------------------

void write_cell(JsonWriter& json, const CellDoc& cell) {
  json.begin_object();
  write_fields(json, cell, kCellIndexFields);
  if (const auto* error = std::get_if<ErrorCellDoc>(&cell.data)) {
    json.key(kCellErrorKey).begin_object();
    write_fields(json, *error, kErrorCellFields);
    json.end_object();
  } else if (const auto* analytic = std::get_if<AnalyticCellDoc>(&cell.data)) {
    json.key(kCellErrorKey).null();
    json.key(kCellKindKey).value(kAnalyticKind);
    write_fields(json, *analytic, kAnalyticCellFields);
    if (analytic->has_internal_raid) {
      write_fields(json, *analytic, kInternalRaidCellFields);
    }
  } else {
    json.key(kCellErrorKey).null();
    json.key(kCellKindKey).value(kSimKind);
    write_fields(json, std::get<SimCellDoc>(cell.data), kSimCellFields);
  }
  json.end_object();
}

// --- reader -----------------------------------------------------------

CacheMetaDoc read_cache_meta(const JsonValue& meta, const std::string& path) {
  kReader.check_object(meta, path);
  kReader.check_keys(meta, path, {"cache"});
  const JsonValue& cache = kReader.require(meta, path, "cache");
  const std::string cache_path = path + ".cache";
  kReader.check_object(cache, cache_path);
  kReader.check_keys(cache, cache_path, {"hits", "misses", "lookups"});
  CacheMetaDoc doc;
  doc.hits = kReader.uint(cache, cache_path, "hits");
  doc.misses = kReader.uint(cache, cache_path, "misses");
  doc.lookups = kReader.uint(cache, cache_path, "lookups");
  return doc;
}

PointDoc read_point(const JsonValue& point, const std::string& path,
                    std::size_t axis_count) {
  kReader.check_object(point, path);
  PointDoc doc;
  doc.label = kReader.string(point, path, "label");
  if (axis_count == 0) {
    kReader.check_keys(point, path, {"label"});
    return doc;
  }
  kReader.check_keys(point, path, {"label", "x"});
  const JsonValue& x = kReader.require(point, path, "x");
  kReader.check_array(x, path + ".x");
  if (x.items.size() != axis_count) {
    kReader.fail(path + ".x", "expected one coordinate per axis (" +
                                  std::to_string(axis_count) + ")");
  }
  doc.x = kReader.read_array(
      x, path + ".x",
      [](const JsonValue& coordinate, const std::string& field, std::size_t) {
        return kReader.number(coordinate, field);
      });
  return doc;
}

CellDoc read_cell(const JsonValue& cell, const std::string& path,
                  std::size_t points, std::size_t configurations) {
  kReader.check_object(cell, path);
  CellDoc doc;
  read_fields(cell, path, kCellIndexFields, doc);
  if (doc.point >= points) {
    kReader.fail(field_path(path, kCellIndexFields, &CellDoc::point),
                 "index out of range");
  }
  if (doc.configuration >= configurations) {
    kReader.fail(field_path(path, kCellIndexFields, &CellDoc::configuration),
                 "index out of range");
  }
  const JsonValue& error = kReader.require(cell, path, kCellErrorKey);
  const std::string error_path = path + "." + std::string(kCellErrorKey);
  if (error.is_object()) {
    kReader.check_keys(cell, path, keys_of({kCellErrorKey}, kCellIndexFields));
    kReader.check_keys(error, error_path, keys_of({}, kErrorCellFields));
    ErrorCellDoc failed;
    read_fields(error, error_path, kErrorCellFields, failed);
    if (failed.code.empty()) {
      kReader.fail(
          field_path(error_path, kErrorCellFields, &ErrorCellDoc::code),
          "error code must be non-empty");
    }
    doc.data = std::move(failed);
    return doc;
  }
  if (!error.is_null()) kReader.fail(error_path, "expected null or an object");
  const std::string kind = kReader.string(cell, path, kCellKindKey);
  const std::vector<std::string_view> ok_keys = {kCellErrorKey, kCellKindKey};
  if (kind == kAnalyticKind) {
    AnalyticCellDoc analytic;
    analytic.has_internal_raid =
        cell.find(kInternalRaidCellFields[0].key) != nullptr;
    kReader.check_keys(
        cell, path,
        analytic.has_internal_raid
            ? keys_of(ok_keys, kCellIndexFields, kAnalyticCellFields,
                      kInternalRaidCellFields)
            : keys_of(ok_keys, kCellIndexFields, kAnalyticCellFields));
    read_fields(cell, path, kAnalyticCellFields, analytic);
    if (analytic.node_rebuild_bottleneck != "disk" &&
        analytic.node_rebuild_bottleneck != "network") {
      kReader.fail(field_path(path, kAnalyticCellFields,
                              &AnalyticCellDoc::node_rebuild_bottleneck),
                   "expected 'disk' or 'network'");
    }
    if (analytic.has_internal_raid) {
      read_fields(cell, path, kInternalRaidCellFields, analytic);
    }
    doc.data = std::move(analytic);
  } else if (kind == kSimKind) {
    kReader.check_keys(cell, path,
                       keys_of(ok_keys, kCellIndexFields, kSimCellFields));
    SimCellDoc sim;
    read_fields(cell, path, kSimCellFields, sim);
    doc.data = std::move(sim);
  } else {
    kReader.fail(path + "." + std::string(kCellKindKey),
                 "expected '" + std::string(kAnalyticKind) + "' or '" +
                     std::string(kSimKind) + "'");
  }
  return doc;
}

ResultSetDoc read_root(const JsonValue& root) {
  kReader.check_object(root, "document");
  kReader.check_keys(root, "document",
                     {"schema", "method", "meta", "axes", "points",
                      "configurations", "cells"});
  const std::string schema = kReader.string(root, "document", "schema");
  if (schema != kResultSetSchema) {
    kReader.fail("schema", "expected '" + std::string(kResultSetSchema) +
                               "', got '" + schema + "'");
  }
  ResultSetDoc doc;
  doc.method = kReader.string(root, "document", "method");
  if (doc.method.empty()) kReader.fail("method", "must be non-empty");
  if (const JsonValue* meta = root.find("meta")) {
    doc.cache = read_cache_meta(*meta, "meta");
  }
  doc.axes = kReader.read_array(
      kReader.require(root, "document", "axes"), "axes",
      [](const JsonValue& axis, const std::string& path, std::size_t) {
        kReader.check_object(axis, path);
        kReader.check_keys(axis, path, {"name"});
        AxisDoc named{kReader.string(axis, path, "name")};
        if (named.name.empty()) {
          kReader.fail(path + ".name", "axis name must be non-empty");
        }
        return named;
      });
  doc.points = kReader.read_array(
      kReader.require(root, "document", "points"), "points",
      [&](const JsonValue& point, const std::string& path, std::size_t) {
        return read_point(point, path, doc.axes.size());
      });
  if (doc.points.empty()) kReader.fail("points", "must be non-empty");
  doc.configurations = kReader.read_array(
      kReader.require(root, "document", "configurations"), "configurations",
      [](const JsonValue& name, const std::string& path, std::size_t) {
        return kReader.string(name, path);
      });
  if (doc.configurations.empty()) {
    kReader.fail("configurations", "must be non-empty");
  }

  const JsonValue& cells = kReader.require(root, "document", "cells");
  kReader.check_array(cells, "cells");
  const std::size_t columns = doc.configurations.size();
  const std::size_t expected = doc.points.size() * columns;
  if (cells.items.size() != expected) {
    kReader.fail("cells", "expected " + std::to_string(expected) +
                              " cells (points x configurations), got " +
                              std::to_string(cells.items.size()));
  }
  doc.cells = kReader.read_array(
      cells, "cells",
      [&](const JsonValue& value, const std::string& path, std::size_t i) {
        CellDoc cell = read_cell(value, path, doc.points.size(), columns);
        if (cell.point != i / columns || cell.configuration != i % columns) {
          kReader.fail(path, "cells must be in row-major (point-major) order");
        }
        return cell;
      });
  return doc;
}

}  // namespace

void write_resultset_json(const ResultSetDoc& doc, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kResultSetSchema);
  json.key("method").value(doc.method);
  if (doc.cache.has_value()) {
    json.key("meta").begin_object();
    json.key("cache").begin_object();
    json.key("hits").value(doc.cache->hits);
    json.key("misses").value(doc.cache->misses);
    json.key("lookups").value(doc.cache->lookups);
    json.end_object();
    json.end_object();
  }
  json.key("axes").begin_array();
  for (const AxisDoc& axis : doc.axes) {
    json.begin_object();
    json.key("name").value(axis.name);
    json.end_object();
  }
  json.end_array();

  json.key("points").begin_array();
  for (const PointDoc& point : doc.points) {
    json.begin_object();
    json.key("label").value(point.label);
    if (!doc.axes.empty()) {
      json.key("x").begin_array();
      for (const double coordinate : point.x) json.value(coordinate);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();

  json.key("configurations").begin_array();
  for (const std::string& name : doc.configurations) json.value(name);
  json.end_array();

  json.key("cells").begin_array();
  for (const CellDoc& cell : doc.cells) write_cell(json, cell);
  json.end_array();
  json.end_object();
}

[[nodiscard]] Expected<ResultSetDoc> read_resultset_json(std::string_view text) {
  obs::Span span(obs::probe::kSpanResultSetRead,
                 obs::probe::kSpanCategoryReport);
  span.arg("bytes", static_cast<std::uint64_t>(text.size()));
  Expected<ResultSetDoc> doc =
      catch_typed<ResultSetDoc>(
      [text] { return read_root(parse_json_or_throw(text)); });
  if (span.armed()) {
    span.arg("outcome",
             doc.has_value() ? "ok" : error_code_name(doc.error().code));
  }
  return doc;
}

}  // namespace nsrel::report
