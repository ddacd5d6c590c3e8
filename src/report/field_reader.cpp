#include "report/field_reader.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nsrel::report {

namespace {

/// Built only on failure, so a successful read allocates no path.
std::string field_name(const std::string& path, std::string_view key) {
  return key.empty() ? path : path + "." + std::string(key);
}

}  // namespace

void FieldReader::fail(const std::string& path, const std::string& what) const {
  throw ErrorException(
      Error{ErrorCode::kMalformedDocument, layer, path + ": " + what});
}

void FieldReader::check_keys(
    const JsonValue& object, const std::string& path,
    const std::vector<std::string_view>& allowed) const {
  for (const auto& [key, value] : object.members) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      fail(path, "unknown key '" + key + "'");
    }
  }
}

double FieldReader::number(const JsonValue& at, const std::string& path,
                           std::string_view key) const {
  const JsonValue& value = key.empty() ? at : require(at, path, key);
  if (!value.is_number()) fail(field_name(path, key), "expected a number");
  if (!std::isfinite(value.number)) {
    fail(field_name(path, key), "number out of range");
  }
  return value.number;
}

std::uint64_t FieldReader::uint(const JsonValue& at, const std::string& path,
                                std::string_view key) const {
  const JsonValue& value = key.empty() ? at : require(at, path, key);
  if (!is_digits(value)) {
    fail(field_name(path, key), "expected an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.text.c_str(), &end, 10);
  if (errno != 0 || end != value.text.c_str() + value.text.size()) {
    fail(field_name(path, key), "unsigned integer out of range");
  }
  return parsed;
}

std::string FieldReader::string(const JsonValue& at, const std::string& path,
                                std::string_view key) const {
  const JsonValue& value = key.empty() ? at : require(at, path, key);
  if (!value.is_string()) fail(field_name(path, key), "expected a string");
  return value.text;
}

}  // namespace nsrel::report
