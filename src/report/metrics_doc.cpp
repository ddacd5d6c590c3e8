#include "report/metrics_doc.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "report/field_reader.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace nsrel::report {

namespace {

void write_histogram(JsonWriter& json, const obs::HistogramRow& row,
                     bool with_buckets) {
  json.begin_object();
  json.key("name").value(row.name);
  json.key("count").value(row.count);
  json.key("sum").value(row.sum);
  json.key("min").value(row.min);
  json.key("max").value(row.max);
  json.key("p50").value(row.quantile_bound(0.50));
  json.key("p90").value(row.quantile_bound(0.90));
  json.key("p99").value(row.quantile_bound(0.99));
  if (with_buckets) {
    json.key("buckets").begin_array();
    for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (row.buckets[i] == 0) continue;
      json.begin_array();
      json.value(static_cast<std::uint64_t>(i));
      json.value(row.buckets[i]);
      json.end_array();
    }
    json.end_array();
  }
  json.end_object();
}

constexpr FieldReader kReader{"report.metrics"};

obs::CounterRow read_counter(const JsonValue& value, const std::string& path) {
  kReader.check_object(value, path);
  kReader.check_keys(value, path, {"name", "value"});
  obs::CounterRow row;
  row.name = kReader.string(value, path, "name");
  if (row.name.empty()) kReader.fail(path + ".name", "must be non-empty");
  row.value = kReader.uint(value, path, "value");
  return row;
}

obs::HistogramRow read_histogram(const JsonValue& value,
                                 const std::string& path) {
  kReader.check_object(value, path);
  kReader.check_keys(value, path,
                     {"name", "count", "sum", "min", "max", "p50", "p90",
                      "p99", "buckets"});
  obs::HistogramRow row;
  row.name = kReader.string(value, path, "name");
  if (row.name.empty()) kReader.fail(path + ".name", "must be non-empty");
  row.count = kReader.uint(value, path, "count");
  row.sum = kReader.uint(value, path, "sum");
  row.min = kReader.uint(value, path, "min");
  row.max = kReader.uint(value, path, "max");

  const JsonValue& buckets = kReader.require(value, path, "buckets");
  const std::string buckets_path = path + ".buckets";
  kReader.check_array(buckets, buckets_path);
  std::uint64_t total = 0;
  std::int64_t last_index = -1;
  for (std::size_t i = 0; i < buckets.items.size(); ++i) {
    const std::string entry_path =
        buckets_path + "[" + std::to_string(i) + "]";
    const JsonValue& entry = buckets.items[i];
    if (!entry.is_array() || entry.items.size() != 2) {
      kReader.fail(entry_path, "expected an [index, count] pair");
    }
    const std::uint64_t index =
        kReader.uint(entry.items[0], entry_path + "[0]");
    const std::uint64_t count =
        kReader.uint(entry.items[1], entry_path + "[1]");
    if (index >= obs::kHistogramBuckets) {
      kReader.fail(entry_path, "bucket index out of range");
    }
    if (static_cast<std::int64_t>(index) <= last_index) {
      kReader.fail(entry_path, "bucket indices must be strictly ascending");
    }
    if (count == 0) {
      kReader.fail(entry_path, "sparse buckets must be non-zero");
    }
    last_index = static_cast<std::int64_t>(index);
    row.buckets[index] = count;
    if (count > std::numeric_limits<std::uint64_t>::max() - total) {
      kReader.fail(buckets_path, "bucket counts overflow uint64");
    }
    total += count;
  }
  if (total != row.count) {
    kReader.fail(buckets_path, "bucket counts must sum to 'count'");
  }
  if (row.count == 0 && (row.min != 0 || row.max != 0 || row.sum != 0)) {
    kReader.fail(path, "empty histogram must have zero sum/min/max");
  }
  if (row.count != 0 && row.min > row.max) {
    kReader.fail(path, "min exceeds max");
  }

  // The percentile summary is derived data; a document that disagrees
  // with its own buckets was corrupted or hand-edited inconsistently.
  const struct {
    const char* key;
    double q;
  } summaries[] = {{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& summary : summaries) {
    if (kReader.uint(value, path, summary.key) !=
        row.quantile_bound(summary.q)) {
      kReader.fail(path + "." + summary.key,
                   "percentile summary does not match buckets");
    }
  }
  return row;
}

/// The name-sorted row array `key` of the document, each row read with
/// `read_row`; names must be strictly ascending (the snapshot invariant).
template <typename ReadRow>
auto read_rows(const JsonValue& root, const char* key, const char* kind,
               ReadRow read_row) {
  std::string last_name;
  return kReader.read_array(
      kReader.require(root, "document", key), key,
      [&](const JsonValue& value, const std::string& path, std::size_t i) {
        auto row = read_row(value, path);
        if (i > 0 && row.name <= last_name) {
          kReader.fail(path, std::string(kind) +
                                 " names must be strictly ascending");
        }
        last_name = row.name;
        return row;
      });
}

obs::MetricsSnapshot read_root(const JsonValue& root) {
  kReader.check_object(root, "document");
  kReader.check_keys(root, "document", {"schema", "counters", "histograms"});
  const std::string schema = kReader.string(root, "document", "schema");
  if (schema != kMetricsSchema) {
    kReader.fail("schema", "expected '" + std::string(kMetricsSchema) +
                               "', got '" + schema + "'");
  }

  obs::MetricsSnapshot snapshot;
  snapshot.counters = read_rows(root, "counters", "counter", read_counter);
  snapshot.histograms =
      read_rows(root, "histograms", "histogram", read_histogram);
  return snapshot;
}

}  // namespace

void write_metrics_json(const obs::MetricsSnapshot& snapshot,
                        std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kMetricsSchema);
  write_metrics_rows(json, snapshot, true);
  json.end_object();
}

void write_metrics_rows(JsonWriter& json, const obs::MetricsSnapshot& snapshot,
                        bool with_buckets) {
  write_name_values(json, "counters", snapshot.counters);
  json.key("histograms").begin_array();
  for (const auto& row : snapshot.histograms) {
    write_histogram(json, row, with_buckets);
  }
  json.end_array();
}

[[nodiscard]] Expected<obs::MetricsSnapshot> read_metrics_json(
    std::string_view text) {
  return catch_typed<obs::MetricsSnapshot>(
      [text] { return read_root(parse_json_or_throw(text)); });
}

}  // namespace nsrel::report
