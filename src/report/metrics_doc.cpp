#include "report/metrics_doc.hpp"

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

// --- writer -----------------------------------------------------------

void write_histogram(JsonWriter& json, const obs::HistogramRow& row) {
  json.begin_object();
  json.key("name").value(row.name);
  json.key("count").value(row.count);
  json.key("sum").value(row.sum);
  json.key("min").value(row.min);
  json.key("max").value(row.max);
  json.key("p50").value(row.quantile_bound(0.50));
  json.key("p90").value(row.quantile_bound(0.90));
  json.key("p99").value(row.quantile_bound(0.99));
  json.key("buckets").begin_array();
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (row.buckets[i] == 0) continue;
    json.begin_array();
    json.value(static_cast<std::uint64_t>(i));
    json.value(row.buckets[i]);
    json.end_array();
  }
  json.end_array();
  json.end_object();
}

// --- reader -----------------------------------------------------------

/// Schema-validation failure. Thrown internally, converted to Expected
/// at the read_metrics_json boundary.
[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw ErrorException(Error{ErrorCode::kMalformedDocument, "report.metrics",
                             path + ": " + what});
}

const JsonValue& require(const JsonValue& object, const std::string& path,
                         std::string_view key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) fail(path, "missing key '" + std::string(key) + "'");
  return *value;
}

void check_keys(const JsonValue& object, const std::string& path,
                const std::vector<std::string_view>& allowed) {
  for (const auto& [key, value] : object.members) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) fail(path, "unknown key '" + key + "'");
  }
}

std::string read_string(const JsonValue& object, const std::string& path,
                        std::string_view key) {
  const JsonValue& value = require(object, path, key);
  if (!value.is_string()) {
    fail(path + "." + std::string(key), "expected a string");
  }
  return value.text;
}

/// An exact non-negative integer: plain digits only, no double detour.
std::uint64_t parse_uint(const JsonValue& value, const std::string& field) {
  if (!value.is_number()) fail(field, "expected an unsigned integer");
  const std::string& token = value.text;
  const bool digits_only =
      !token.empty() &&
      token.find_first_not_of("0123456789") == std::string::npos;
  if (!digits_only || (token.size() > 1 && token[0] == '0')) {
    fail(field, "expected an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) {
    fail(field, "unsigned integer out of range");
  }
  return parsed;
}

std::uint64_t read_uint(const JsonValue& object, const std::string& path,
                        std::string_view key) {
  return parse_uint(require(object, path, key),
                    path + "." + std::string(key));
}

obs::CounterRow read_counter(const JsonValue& value,
                                       const std::string& path) {
  if (!value.is_object()) fail(path, "expected an object");
  check_keys(value, path, {"name", "value"});
  obs::CounterRow row;
  row.name = read_string(value, path, "name");
  if (row.name.empty()) fail(path + ".name", "must be non-empty");
  row.value = read_uint(value, path, "value");
  return row;
}

obs::HistogramRow read_histogram(const JsonValue& value,
                                           const std::string& path) {
  if (!value.is_object()) fail(path, "expected an object");
  check_keys(value, path,
             {"name", "count", "sum", "min", "max", "p50", "p90", "p99",
              "buckets"});
  obs::HistogramRow row;
  row.name = read_string(value, path, "name");
  if (row.name.empty()) fail(path + ".name", "must be non-empty");
  row.count = read_uint(value, path, "count");
  row.sum = read_uint(value, path, "sum");
  row.min = read_uint(value, path, "min");
  row.max = read_uint(value, path, "max");

  const JsonValue& buckets = require(value, path, "buckets");
  const std::string buckets_path = path + ".buckets";
  if (!buckets.is_array()) fail(buckets_path, "expected an array");
  std::uint64_t total = 0;
  std::int64_t last_index = -1;
  for (std::size_t i = 0; i < buckets.items.size(); ++i) {
    const std::string entry_path =
        buckets_path + "[" + std::to_string(i) + "]";
    const JsonValue& entry = buckets.items[i];
    if (!entry.is_array() || entry.items.size() != 2) {
      fail(entry_path, "expected an [index, count] pair");
    }
    const std::uint64_t index =
        parse_uint(entry.items[0], entry_path + "[0]");
    const std::uint64_t count =
        parse_uint(entry.items[1], entry_path + "[1]");
    if (index >= obs::kHistogramBuckets) {
      fail(entry_path, "bucket index out of range");
    }
    if (static_cast<std::int64_t>(index) <= last_index) {
      fail(entry_path, "bucket indices must be strictly ascending");
    }
    if (count == 0) fail(entry_path, "sparse buckets must be non-zero");
    last_index = static_cast<std::int64_t>(index);
    row.buckets[index] = count;
    total += count;
  }
  if (total != row.count) {
    fail(buckets_path, "bucket counts must sum to 'count'");
  }
  if (row.count == 0 && (row.min != 0 || row.max != 0 || row.sum != 0)) {
    fail(path, "empty histogram must have zero sum/min/max");
  }

  // The percentile summary is derived data; a document that disagrees
  // with its own buckets was corrupted or hand-edited inconsistently.
  const struct {
    const char* key;
    double q;
  } summaries[] = {{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& summary : summaries) {
    if (read_uint(value, path, summary.key) !=
        row.quantile_bound(summary.q)) {
      fail(path + "." + summary.key,
           "percentile summary does not match buckets");
    }
  }
  return row;
}

obs::MetricsSnapshot read_document(const JsonValue& root) {
  if (!root.is_object()) fail("document", "expected an object");
  check_keys(root, "document", {"schema", "counters", "histograms"});
  const std::string schema = read_string(root, "document", "schema");
  if (schema != kMetricsSchema) {
    fail("schema", "expected '" + std::string(kMetricsSchema) + "', got '" +
                       schema + "'");
  }

  obs::MetricsSnapshot snapshot;
  const JsonValue& counters = require(root, "document", "counters");
  if (!counters.is_array()) fail("counters", "expected an array");
  std::string last_name;
  for (std::size_t i = 0; i < counters.items.size(); ++i) {
    const std::string path = "counters[" + std::to_string(i) + "]";
    obs::CounterRow row = read_counter(counters.items[i], path);
    if (i > 0 && row.name <= last_name) {
      fail(path, "counter names must be strictly ascending");
    }
    last_name = row.name;
    snapshot.counters.push_back(std::move(row));
  }

  const JsonValue& histograms = require(root, "document", "histograms");
  if (!histograms.is_array()) fail("histograms", "expected an array");
  last_name.clear();
  for (std::size_t i = 0; i < histograms.items.size(); ++i) {
    const std::string path = "histograms[" + std::to_string(i) + "]";
    obs::HistogramRow row =
        read_histogram(histograms.items[i], path);
    if (i > 0 && row.name <= last_name) {
      fail(path, "histogram names must be strictly ascending");
    }
    last_name = row.name;
    snapshot.histograms.push_back(std::move(row));
  }
  return snapshot;
}

}  // namespace

void write_metrics_json(const obs::MetricsSnapshot& snapshot,
                        std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kMetricsSchema);
  json.key("counters").begin_array();
  for (const auto& row : snapshot.counters) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("value").value(row.value);
    json.end_object();
  }
  json.end_array();
  json.key("histograms").begin_array();
  for (const auto& row : snapshot.histograms) write_histogram(json, row);
  json.end_array();
  json.end_object();
}

[[nodiscard]] Expected<obs::MetricsSnapshot> read_metrics_json(std::string_view text) {
  Expected<JsonValue> parsed = parse_json(text);
  if (!parsed.has_value()) return parsed.error();
  try {
    return read_document(parsed.value());
  } catch (const ErrorException& e) {
    return e.error();
  }
}

}  // namespace nsrel::report
