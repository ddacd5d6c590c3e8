#include "report/summary.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "report/metrics_doc.hpp"

namespace nsrel::report {

namespace {

/// The row called `name` in `rows` (name-sorted), or nullptr.
template <typename Row>
const Row* find_row(const std::vector<Row>& rows, const std::string& name) {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const Row& row, const std::string& key) { return row.name < key; });
  return it != rows.end() && it->name == name ? &*it : nullptr;
}

/// A histogram's report rows (suffix, value): count, sum, percentiles.
std::vector<std::pair<const char*, std::uint64_t>> histogram_rows(
    const obs::HistogramRow& r) {
  return {{".count", r.count},
          {".sum", r.sum},
          {".p50", r.quantile_bound(0.50)},
          {".p90", r.quantile_bound(0.90)},
          {".p99", r.quantile_bound(0.99)}};
}

/// `total += value`; false (total untouched) when the sum would wrap.
[[nodiscard]] bool add_exact(std::uint64_t& total, std::uint64_t value) {
  if (value > std::numeric_limits<std::uint64_t>::max() - total) return false;
  total += value;
  return true;
}

[[nodiscard]] Error overflow(const std::string& row) {
  return Error{ErrorCode::kInvalidParameter, "report.summary",
               "total of row '" + row + "' overflows uint64"};
}

}  // namespace

[[nodiscard]] Expected<RunDoc> read_run_document(std::string label, std::string_view text) {
  RunDoc run;
  run.label = std::move(label);

  // Detection: an events journal's first line is a complete one-line
  // header object; a metrics document's first line is just "{".
  std::size_t end = text.find('\n');
  if (end == std::string_view::npos) end = text.size();
  const Expected<JsonValue> first = parse_json(text.substr(0, end));
  bool is_events = false;
  if (first.has_value() && first.value().is_object()) {
    const JsonValue* schema = first.value().find("schema");
    is_events = schema != nullptr && schema->is_string() &&
                schema->text == kEventsSchema;
  }

  const auto labelled = [&run](Error error) {
    error.detail = run.label + ": " + error.detail;
    return error;
  };
  if (is_events) {
    Expected<EventsDoc> events = read_events_ndjson(text);
    if (!events.has_value()) return labelled(events.error());
    run.events = std::move(events.value());
    return run;
  }

  Expected<obs::MetricsSnapshot> metrics = read_metrics_json(text);
  if (!metrics.has_value()) return labelled(metrics.error());
  run.metrics = std::move(metrics.value());
  return run;
}

[[nodiscard]] Expected<Summary> summarize(std::vector<RunDoc> runs) {
  Summary summary;
  for (const RunDoc& run : runs) {
    summary.event_counts.emplace_back();
    if (run.metrics.has_value()) {
      summary.total = obs::MetricsSnapshot::merge(summary.total, *run.metrics);
      // merge() adds in uint64: a total wrapped iff it is below the
      // addend just merged in.
      for (const auto& row : run.metrics->counters) {
        if (find_row(summary.total.counters, row.name)->value < row.value) {
          return overflow(row.name);
        }
      }
      for (const auto& row : run.metrics->histograms) {
        const obs::HistogramRow* total =
            find_row(summary.total.histograms, row.name);
        if (total->count < row.count) return overflow(row.name + ".count");
        if (total->sum < row.sum) return overflow(row.name + ".sum");
      }
    }
    if (run.events.has_value()) {
      if (!add_exact(summary.total_dropped, run.events->dropped)) {
        return overflow("events.dropped");
      }
      summary.event_counts.back() = event_counts(*run.events);
      for (const auto& [name, count] : summary.event_counts.back()) {
        if (!add_exact(summary.total_events[name], count)) {
          return overflow("events." + name);
        }
      }
    }
  }
  summary.runs = std::move(runs);
  return summary;
}

Table report_table(const Summary& summary) {
  const std::vector<RunDoc>& runs = summary.runs;
  std::vector<std::string> headers{"row"};
  for (const RunDoc& run : runs) headers.push_back(run.label);
  headers.emplace_back("total");
  Table table(std::move(headers));

  // One row: `per_run(i)` per run ("-" where that run has no such row),
  // then the total.
  const auto add_row = [&](const std::string& name, const auto& per_run,
                           std::uint64_t total) {
    std::vector<std::string> cells{name};
    for (std::size_t i = 0; i < runs.size(); ++i) cells.push_back(per_run(i));
    cells.push_back(std::to_string(total));
    table.add_row(std::move(cells));
  };

  for (const auto& counter : summary.total.counters) {
    add_row(
        counter.name,
        [&](std::size_t i) -> std::string {
          const auto* row =
              runs[i].metrics.has_value()
                  ? find_row(runs[i].metrics->counters, counter.name)
                  : nullptr;
          return row == nullptr ? "-" : std::to_string(row->value);
        },
        counter.value);
  }
  for (const auto& histogram : summary.total.histograms) {
    const auto totals = histogram_rows(histogram);
    for (std::size_t k = 0; k < totals.size(); ++k) {
      add_row(
          histogram.name + totals[k].first,
          [&](std::size_t i) -> std::string {
            const auto* row =
                runs[i].metrics.has_value()
                    ? find_row(runs[i].metrics->histograms, histogram.name)
                    : nullptr;
            return row == nullptr
                       ? "-"
                       : std::to_string(histogram_rows(*row)[k].second);
          },
          totals[k].second);
    }
  }
  for (const auto& [name, total] : summary.total_events) {
    add_row(
        "events." + name,
        [&](std::size_t i) -> std::string {
          if (!runs[i].events.has_value()) return "-";
          const auto it = summary.event_counts[i].find(name);
          return std::to_string(
              it == summary.event_counts[i].end() ? 0 : it->second);
        },
        total);
  }
  if (std::any_of(runs.begin(), runs.end(),
                  [](const RunDoc& run) { return run.events.has_value(); })) {
    add_row(
        "events.dropped",
        [&](std::size_t i) -> std::string {
          return runs[i].events.has_value()
                     ? std::to_string(runs[i].events->dropped)
                     : "-";
        },
        summary.total_dropped);
  }
  return table;
}

void write_report_json(const Summary& summary, std::ostream& out) {
  const std::vector<RunDoc>& runs = summary.runs;
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kReportSchema);
  json.key("runs").begin_array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunDoc& run = runs[i];
    json.begin_object();
    json.key("label").value(run.label);
    if (run.metrics.has_value()) {
      json.key("metrics").begin_object();
      write_metrics_rows(json, *run.metrics, false);
      json.end_object();
    } else {
      json.key("metrics").null();
    }
    if (run.events.has_value()) {
      json.key("events").begin_object();
      json.key("dropped").value(run.events->dropped);
      write_name_values(json, "counts", summary.event_counts[i]);
      json.end_object();
    } else {
      json.key("events").null();
    }
    json.end_object();
  }
  json.end_array();

  json.key("total").begin_object();
  write_metrics_rows(json, summary.total, false);
  write_name_values(json, "events", summary.total_events);
  json.key("events_dropped").value(summary.total_dropped);
  json.end_object();
  json.end_object();
}

}  // namespace nsrel::report
