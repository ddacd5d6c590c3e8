// Minimal strict JSON parser — the read half of the report layer's
// serialization loop (json.hpp is the write half).
//
// Deliberately small: parses exactly the dialect JsonWriter emits (plus
// arbitrary whitespace and member order, since part of the point is
// reading documents that other tools may have reformatted). Objects keep
// members in insertion order in a vector — never a hash map — so
// everything downstream of a parse stays deterministically ordered.
// Every malformed input comes back as a typed kMalformedDocument error
// with a byte offset, not an exception.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace nsrel::report {

/// One parsed JSON value. Numbers keep both the strtod double and the
/// raw source token (`text`), so integer fields that must round-trip
/// exactly (uint64 seeds) can re-parse the token losslessly.
struct JsonValue {
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// String payload for kString; the raw source token for kNumber.
  std::string text;
  std::vector<JsonValue> items;  ///< kArray elements
  /// kObject members in source order (duplicate keys are a parse error).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// The member with the given key, or nullptr. Precondition: is_object().
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document (trailing content beyond the single
/// top-level value is an error). Failures are typed
/// kMalformedDocument errors (layer "report.json") carrying the byte
/// offset of the problem.
[[nodiscard]] Expected<JsonValue> parse_json(std::string_view text);
/// parse_json that throws the typed error (ErrorException) instead, for
/// document readers that run inside catch_typed().
[[nodiscard]] JsonValue parse_json_or_throw(std::string_view text);

/// Runs `body`, returning a typed error it throws (ErrorException) as
/// Expected: the boundary of every report reader, which signals through
/// exceptions so its recursive descent need not thread Expected around.
template <typename T, typename Body>
[[nodiscard]] Expected<T> catch_typed(Body&& body) {
  try {
    return std::forward<Body>(body)();
  } catch (const ErrorException& e) {
    return e.error();
  }
}

}  // namespace nsrel::report
