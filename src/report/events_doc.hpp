// Serialization loop for flight-recorder journals (schema
// nsrel-events-v1): the write half renders obs::Journal events as
// NDJSON — line 1 is a header object, every following line one
// event — and the read half parses a journal back strictly (typed
// kMalformedDocument, layer "report.events", on anything malformed).
//
// NDJSON rather than one JSON document because the journal is the
// designed-for ingest path of a resident `nsreld`: an open journal can
// be tailed and each complete line is independently parseable; a
// truncated final line is detectable damage, not silent data loss.
//
// Line shapes ("dropped" is always 0: the journal is complete; the
// field stays so documents keep one shape):
//   {"schema":"nsrel-events-v1","dropped":0}
//   {"event":"cell.claim","domain":"seq","seq":4294967296,"cell":0,...}
//   {"event":"repair.barrier","domain":"sim","seq":7,"t":0.5,...}
//
// Event args are flattened into the line in emission order after the
// reserved keys (event, domain, seq, t); arg keys never collide with
// the reserved set (probe_names.hpp documents each event's args).
// Deterministic: events arrive stable-sorted by seq from
// Journal::events(), numbers are raw uint tokens or shortest
// round-trip doubles, so the same run writes the same bytes at any
// --jobs value.
//
// This header also hosts the post-hoc views behind `nsrel events`: a
// flat timeline table and the repair batches rollup (per-barrier rows
// with fault/replan/retry/degraded-read/failed-read counts).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "report/table.hpp"
#include "util/error.hpp"

namespace nsrel::report {

inline constexpr const char* kEventsSchema = "nsrel-events-v1";

/// One parsed journal event (owning strings, unlike the in-process
/// obs::Record whose names are static literals).
struct EventRecord {
  struct Arg {
    enum class Kind : unsigned char { kUint, kDouble, kLiteral };
    std::string key;
    Kind kind = Kind::kUint;
    std::uint64_t uint_value = 0;
    double double_value = 0.0;
    std::string literal_value;
  };

  std::string name;
  bool sim_domain = false;
  std::uint64_t seq = 0;
  double sim_seconds = 0.0;  ///< sim domain only
  std::vector<Arg> args;
};

/// A parsed journal document.
struct EventsDoc {
  std::uint64_t dropped = 0;
  std::vector<EventRecord> events;
};

/// Writes a journal as nsrel-events-v1 NDJSON. `events` must come from
/// Journal::events() (already seq-sorted).
void write_events_ndjson(const std::vector<obs::Record>& events,
                         std::ostream& out);

/// write_events_ndjson() of Journal::events() to `path`. Returns false
/// when the file cannot be created or the stream fails.
[[nodiscard]] bool write_events_file(const std::string& path);

/// Strict read of an nsrel-events-v1 journal.
[[nodiscard]] Expected<EventsDoc> read_events_ndjson(std::string_view text);

/// Occurrence count per event name, in name order — the cross-run rows
/// `nsrel report` shows for a journal column.
[[nodiscard]] std::map<std::string, std::uint64_t> event_counts(
    const EventsDoc& doc);

/// Flat timeline: one row per event (#, domain, clock, event, details
/// with args as "k=v" pairs).
[[nodiscard]] Table events_timeline_table(const EventsDoc& doc);

/// Repair batches rollup: one row per repair.barrier event carrying
/// the batch index, sim time, cumulative committed stripes, and the
/// counts of faults (fired / applied), re-planned stripes, retries,
/// degraded reads, and failed foreground reads attributed to that
/// batch. Events after the final barrier roll into a trailing "-" row.
[[nodiscard]] Table events_batches_table(const EventsDoc& doc);

/// The parsed journal re-rendered as one pretty JSON document (the
/// `nsrel events --format json` shape): {"schema", "dropped",
/// "events": [{"event", "domain", "seq", "t"?, "args": {...}}, ...]}.
void write_events_json(const EventsDoc& doc, std::ostream& out);

}  // namespace nsrel::report
