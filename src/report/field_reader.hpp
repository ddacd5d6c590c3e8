// The strict-document rules of the report readers (resultset_doc,
// metrics_doc, events_doc), stated once. A FieldReader names its layer
// ("report.resultset", ...); each violation throws the typed
// kMalformedDocument error "<JSON path>: <what>" under that layer, which
// the public readers return through catch_typed().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "report/json_parse.hpp"

namespace nsrel::report {

struct FieldReader {
  const char* layer;

  [[noreturn]] void fail(const std::string& path,
                         const std::string& what) const;
  /// Rejects the first member of `object` whose key is not in `allowed`.
  void check_keys(const JsonValue& object, const std::string& path,
                  const std::vector<std::string_view>& allowed) const;

  /// Member `key` of `at`, reported as "<path>.<key>" (a missing key as
  /// "<path>: missing key"), or `at` itself when `key` is empty. A
  /// number must be finite: one that overflowed to +-inf would write
  /// back as null. An unsigned integer is an exact uint64 token of plain
  /// digits (is_digits: no sign, fraction or exponent).
  [[nodiscard]] double number(const JsonValue& at, const std::string& path,
                              std::string_view key = {}) const;
  [[nodiscard]] std::uint64_t uint(const JsonValue& at, const std::string& path,
                                   std::string_view key = {}) const;
  [[nodiscard]] std::string string(const JsonValue& at, const std::string& path,
                                   std::string_view key = {}) const;
  [[nodiscard]] static bool is_digits(const JsonValue& value) {
    return value.is_number() && !value.text.empty() &&
           value.text.find_first_not_of("0123456789") == std::string::npos;
  }

  [[nodiscard]] const JsonValue& require(const JsonValue& object,
                                         const std::string& path,
                                         std::string_view key) const {
    const JsonValue* value = object.find(key);
    if (value == nullptr) fail(path, "missing key '" + std::string(key) + "'");
    return *value;
  }
  void check_object(const JsonValue& value, const std::string& path) const {
    if (!value.is_object()) fail(path, "expected an object");
  }
  void check_array(const JsonValue& value, const std::string& path) const {
    if (!value.is_array()) fail(path, "expected an array");
  }

  /// `read(element, "<path>[i]", i)` over the array at `path`, in order.
  template <typename Read>
  [[nodiscard]] auto read_array(const JsonValue& value, const std::string& path,
                                Read&& read) const {
    check_array(value, path);
    std::vector<std::decay_t<decltype(read(value, path, std::size_t{0}))>> out;
    out.reserve(value.items.size());
    for (std::size_t i = 0; i < value.items.size(); ++i) {
      out.push_back(
          read(value.items[i], path + "[" + std::to_string(i) + "]", i));
    }
    return out;
  }
};

}  // namespace nsrel::report
