// The serialized form of an evaluated grid: the `nsrel-resultset-v3`
// document, with both halves of the loop in one place — a canonical
// writer and a strict reader that round-trips the writer byte-exactly.
//
// The document layer deliberately lives below the engine (report depends
// on nothing but util/obs): the engine converts its in-memory ResultSet
// into a ResultSetDoc to write, and tools that only *consume* documents
// (`nsrel diff`) never touch the solve stack at all.
//
// v3 schema (two-space JSON, keys in this order):
//   {
//     "schema": "nsrel-resultset-v3",
//     "method": "exact" | "closed",
//     "meta": {"cache": {"hits": H, "misses": M, "lookups": L}},  [opt]
//     "axes": [{"name": "drive-mttf"}, ...],        // [] = single point
//     "points": [{"label": "...", "x": [c0, c1, ...]}, ...],
//                                       // "x" present iff axes nonempty
//     "configurations": ["raid5-ft1", ...],
//     "cells": [ ... one record per cell, row-major, see below ... ]
//   }
// Cell records always carry "point", "configuration", "error". Failed
// cells: "error" is {code, layer, detail} and nothing follows. Ok cells:
// "error" is null, then "kind": "analytic" (AnalysisResult scalars; the
// three internal-RAID rates appear only for internal-RAID
// configurations) or "kind": "sim" (mean/CI/trials/seed).
//
// vs v2: "axis": string|null became the "axes" array and per-point "x"
// became the coordinate vector — the schema cost of N-axis grids — and
// ok cells gained "kind" so Monte-Carlo sweeps share the document.
//
// Reading is strict: wrong schema tag, unknown or missing keys, type
// mismatches, out-of-range indices, or cells out of row-major order are
// typed kMalformedDocument errors naming the offending path — never a
// best-effort partial document. Accepted member order is flexible
// (re-serialization is canonical regardless); numbers re-emit through
// json_number, so read-then-write reproduces a writer-produced document
// byte for byte (seeds round-trip as exact uint64 digits).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace nsrel::report {

inline constexpr std::string_view kResultSetSchema = "nsrel-resultset-v3";

struct AxisDoc {
  std::string name;
};

struct PointDoc {
  std::string label;
  /// One coordinate per axis; empty for 0-axis (single point) documents.
  std::vector<double> x;
};

struct CacheMetaDoc {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t lookups = 0;
};

struct ErrorCellDoc {
  std::string code;  ///< stable snake_case name (error_code_name)
  std::string layer;
  std::string detail;
};

struct AnalyticCellDoc {
  double mttdl_hours = 0.0;
  double events_per_system_year = 0.0;
  double events_per_pb_year = 0.0;
  double logical_capacity_bytes = 0.0;
  double node_rebuild_hours = 0.0;
  std::string node_rebuild_bottleneck;  ///< "disk" | "network"
  /// The three rates below are serialized only for internal-RAID
  /// configurations (mirrors the writer's historical behavior).
  bool has_internal_raid = false;
  double array_failure_per_hour = 0.0;
  double sector_error_per_hour = 0.0;
  double restripe_hours = 0.0;
};

struct SimCellDoc {
  double mean_hours = 0.0;
  double stddev_hours = 0.0;
  double stderr_hours = 0.0;
  double ci95_low_hours = 0.0;
  double ci95_high_hours = 0.0;
  int trials = 0;
  std::uint64_t seed = 0;
};

struct CellDoc {
  std::uint64_t point = 0;
  std::uint64_t configuration = 0;
  std::variant<AnalyticCellDoc, SimCellDoc, ErrorCellDoc> data;

  [[nodiscard]] bool ok() const {
    return !std::holds_alternative<ErrorCellDoc>(data);
  }
};

/// One serialized field of a cell record: its JSON key and the member
/// that holds it. The lists below are the cell schema, each kind's
/// fields in document order: the writer, the reader and
/// diff_resultsets all walk them, so every key is stated once.
template <typename Cell>
struct CellField {
  std::string_view key;
  std::variant<double Cell::*, int Cell::*, std::uint64_t Cell::*,
               std::string Cell::*>
      member;
};

/// Every cell record opens with its row-major position, then "error"
/// (null for ok cells) and, for ok cells, "kind".
inline constexpr CellField<CellDoc> kCellIndexFields[] = {
    {"point", &CellDoc::point},
    {"configuration", &CellDoc::configuration}};
inline constexpr std::string_view kCellErrorKey = "error";
inline constexpr std::string_view kCellKindKey = "kind";
inline constexpr std::string_view kAnalyticKind = "analytic";
inline constexpr std::string_view kSimKind = "sim";

/// The members of a failed cell's "error" object.
inline constexpr CellField<ErrorCellDoc> kErrorCellFields[] = {
    {"code", &ErrorCellDoc::code},
    {"layer", &ErrorCellDoc::layer},
    {"detail", &ErrorCellDoc::detail}};

inline constexpr CellField<AnalyticCellDoc> kAnalyticCellFields[] = {
    {"mttdl_hours", &AnalyticCellDoc::mttdl_hours},
    {"events_per_system_year", &AnalyticCellDoc::events_per_system_year},
    {"events_per_pb_year", &AnalyticCellDoc::events_per_pb_year},
    {"logical_capacity_bytes", &AnalyticCellDoc::logical_capacity_bytes},
    {"node_rebuild_hours", &AnalyticCellDoc::node_rebuild_hours},
    {"node_rebuild_bottleneck", &AnalyticCellDoc::node_rebuild_bottleneck}};

/// Present exactly when has_internal_raid; the first key's presence is
/// what the reader tests.
inline constexpr CellField<AnalyticCellDoc> kInternalRaidCellFields[] = {
    {"array_failure_per_hour", &AnalyticCellDoc::array_failure_per_hour},
    {"sector_error_per_hour", &AnalyticCellDoc::sector_error_per_hour},
    {"restripe_hours", &AnalyticCellDoc::restripe_hours}};

inline constexpr CellField<SimCellDoc> kSimCellFields[] = {
    {"mean_hours", &SimCellDoc::mean_hours},
    {"stddev_hours", &SimCellDoc::stddev_hours},
    {"stderr_hours", &SimCellDoc::stderr_hours},
    {"ci95_low_hours", &SimCellDoc::ci95_low_hours},
    {"ci95_high_hours", &SimCellDoc::ci95_high_hours},
    {"trials", &SimCellDoc::trials},
    {"seed", &SimCellDoc::seed}};

struct ResultSetDoc {
  std::string method;
  std::optional<CacheMetaDoc> cache;
  std::vector<AxisDoc> axes;
  std::vector<PointDoc> points;
  std::vector<std::string> configurations;
  /// Row-major: cell i is (point i / C, configuration i % C); the reader
  /// enforces exactly points*configurations cells in that order.
  std::vector<CellDoc> cells;
};

/// Serializes the document in canonical v3 form (deterministic bytes).
void write_resultset_json(const ResultSetDoc& doc, std::ostream& out);

/// Parses and strictly validates one v3 document. All failures are
/// typed kMalformedDocument errors (layer "report.resultset" for schema
/// violations, "report.json" for syntax errors underneath).
[[nodiscard]] Expected<ResultSetDoc> read_resultset_json(
    std::string_view text);

}  // namespace nsrel::report
