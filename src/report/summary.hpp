// Cross-run summary behind `nsrel report`: one-or-more observability
// documents — nsrel-metrics-v1 snapshots and/or nsrel-events-v1
// journals — aggregated into a single matrix (rows = counters,
// histogram summaries, event occurrence counts; columns = one per
// input document plus an exact "total" built with MetricsSnapshot's
// merge algebra; total percentiles are recomputed from the *merged*
// buckets, never averaged).
//
// Document type is detected from the first line's "schema" member, so
// callers can mix metrics and events files in one invocation; every
// malformed input is a typed kMalformedDocument naming the file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hpp"
#include "report/events_doc.hpp"
#include "report/table.hpp"
#include "util/error.hpp"

namespace nsrel::report {

inline constexpr const char* kReportSchema = "nsrel-report-v1";

/// One parsed input document, tagged with its origin label (the CLI
/// passes the file path). Exactly one of metrics/events is set.
struct RunDoc {
  std::string label;
  std::optional<obs::MetricsSnapshot> metrics;
  std::optional<EventsDoc> events;
};

/// Parses `text` as whichever observability document it is (see file
/// comment for the detection rule).
[[nodiscard]] Expected<RunDoc> read_run_document(std::string label,
                                                 std::string_view text);

/// The aggregation both renderers share: the runs plus exact totals
/// (metrics merged with MetricsSnapshot's algebra, event counts and
/// dropped counts summed).
struct Summary {
  std::vector<RunDoc> runs;
  /// Per run: event occurrence counts by name (empty without a journal).
  std::vector<std::map<std::string, std::uint64_t>> event_counts;
  obs::MetricsSnapshot total;
  std::map<std::string, std::uint64_t> total_events;
  std::uint64_t total_dropped = 0;
};

/// Aggregates `runs`. A total that would overflow uint64 is a typed
/// invalid_parameter error (layer "report.summary") naming its row —
/// never a silently wrapped number.
[[nodiscard]] Expected<Summary> summarize(std::vector<RunDoc> runs);

/// The summary matrix. Row order: counters (name order), histogram
/// summary sub-rows (name.count/.sum/.p50/.p90/.p99), event counts
/// ("events.<name>"), then "events.dropped" when any journal was given.
/// Cells render "-" where an input has no such row.
[[nodiscard]] Table report_table(const Summary& summary);

/// The same aggregation as a stable nsrel-report-v1 JSON document.
void write_report_json(const Summary& summary, std::ostream& out);

}  // namespace nsrel::report
