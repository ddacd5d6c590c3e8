// Serialization loop for metrics documents (schema nsrel-metrics-v1):
// the write half renders an obs::MetricsSnapshot as a stable JSON
// document, the read half parses one back strictly (unknown keys,
// wrong types, inconsistent percentile summaries, and malformed
// buckets are all typed kMalformedDocument errors, layer
// "report.metrics").
//
// The document is integer-exact: counters, histogram counts, sums,
// extremes, and sparse log2 buckets all round-trip through uint64
// tokens, so read(write(s)) == s field for field — which is what lets
// `nsrel report` merge documents from different runs with
// MetricsSnapshot's exact algebra. p50/p90/p99 are included as a
// convenience summary and are *derived*: the reader recomputes them
// from the buckets and rejects a document whose summary disagrees.
#pragma once

#include <iosfwd>
#include <string_view>

#include "obs/snapshot.hpp"
#include "report/json.hpp"
#include "util/error.hpp"

namespace nsrel::report {

inline constexpr const char* kMetricsSchema = "nsrel-metrics-v1";

/// Writes the snapshot as an nsrel-metrics-v1 document. Deterministic:
/// rows in name order (the snapshot invariant), buckets sparse in
/// ascending index order.
void write_metrics_json(const obs::MetricsSnapshot& snapshot,
                        std::ostream& out);

/// `key`: [{"name": N, "value": V}, ...] over `rows` — CounterRows or
/// name -> count map entries. The one counter-array writer of the
/// metrics and report documents.
template <typename Rows>
void write_name_values(JsonWriter& json, std::string_view key,
                       const Rows& rows) {
  json.key(key).begin_array();
  for (const auto& [name, value] : rows) {
    json.begin_object();
    json.key("name").value(name);
    json.key("value").value(value);
    json.end_object();
  }
  json.end_array();
}

/// The "counters" and "histograms" members of a metrics snapshot. A
/// histogram row carries name, count, sum, min, max and the derived
/// p50/p90/p99 bounds, then its sparse [index, count] buckets when
/// `with_buckets` (the metrics document; the report omits them).
void write_metrics_rows(JsonWriter& json, const obs::MetricsSnapshot& snapshot,
                        bool with_buckets);

/// Strict read of an nsrel-metrics-v1 document.
[[nodiscard]] Expected<obs::MetricsSnapshot> read_metrics_json(
    std::string_view text);

}  // namespace nsrel::report
