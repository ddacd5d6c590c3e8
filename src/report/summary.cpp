#include "report/summary.hpp"

#include <cstddef>
#include <cstdint>
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

/// Per-run lookup indexes (std::map for deterministic iteration).
struct RunIndex {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, const obs::HistogramRow*> histograms;
  std::map<std::string, std::uint64_t> events;
};

RunIndex index_run(const RunDoc& run) {
  RunIndex index;
  if (run.metrics.has_value()) {
    for (const auto& row : run.metrics->counters) {
      index.counters.emplace(row.name, row.value);
    }
    for (const auto& row : run.metrics->histograms) {
      index.histograms.emplace(row.name, &row);
    }
  }
  if (run.events.has_value()) {
    for (auto& [name, count] : event_counts(*run.events)) {
      index.events.emplace(name, count);
    }
  }
  return index;
}

/// The aggregation both renderers share.
struct Aggregate {
  std::vector<RunIndex> indexes;
  obs::MetricsSnapshot total;                       ///< merged metrics
  std::map<std::string, std::uint64_t> total_events;
  std::uint64_t total_dropped = 0;
  bool any_metrics = false;
  bool any_events = false;
};

Aggregate aggregate(const std::vector<RunDoc>& runs) {
  Aggregate agg;
  for (const RunDoc& run : runs) {
    agg.indexes.push_back(index_run(run));
    if (run.metrics.has_value()) {
      agg.any_metrics = true;
      agg.total = obs::MetricsSnapshot::merge(agg.total, *run.metrics);
    }
    if (run.events.has_value()) {
      agg.any_events = true;
      agg.total_dropped += run.events->dropped;
      for (const auto& [name, count] : event_counts(*run.events)) {
        agg.total_events[name] += count;
      }
    }
  }
  return agg;
}

void write_histogram_summary(JsonWriter& json,
                             const obs::HistogramRow& row) {
  json.begin_object();
  json.key("name").value(row.name);
  json.key("count").value(row.count);
  json.key("sum").value(row.sum);
  json.key("min").value(row.min);
  json.key("max").value(row.max);
  json.key("p50").value(row.quantile_bound(0.50));
  json.key("p90").value(row.quantile_bound(0.90));
  json.key("p99").value(row.quantile_bound(0.99));
  json.end_object();
}

void write_name_values(JsonWriter& json, const char* key,
                       const std::map<std::string, std::uint64_t>& values) {
  json.key(key).begin_array();
  for (const auto& [name, value] : values) {
    json.begin_object();
    json.key("name").value(name);
    json.key("value").value(value);
    json.end_object();
  }
  json.end_array();
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

  if (is_events) {
    Expected<EventsDoc> events = read_events_ndjson(text);
    if (!events.has_value()) {
      Error error = events.error();
      error.detail = run.label + ": " + error.detail;
      return error;
    }
    run.events = std::move(events.value());
    return run;
  }

  Expected<obs::MetricsSnapshot> metrics = read_metrics_json(text);
  if (!metrics.has_value()) {
    Error error = metrics.error();
    error.detail = run.label + ": " + error.detail;
    return error;
  }
  run.metrics = std::move(metrics.value());
  return run;
}

Table report_table(const std::vector<RunDoc>& runs) {
  const Aggregate agg = aggregate(runs);

  std::vector<std::string> headers{"row"};
  for (const RunDoc& run : runs) headers.push_back(run.label);
  headers.emplace_back("total");
  Table table(std::move(headers));

  const auto add_row = [&](const std::string& name, const auto& per_run,
                           const std::string& total) {
    std::vector<std::string> cells{name};
    for (std::size_t i = 0; i < runs.size(); ++i) cells.push_back(per_run(i));
    cells.push_back(total);
    table.add_row(std::move(cells));
  };

  for (const auto& counter : agg.total.counters) {
    add_row(
        counter.name,
        [&](std::size_t i) -> std::string {
          const auto it = agg.indexes[i].counters.find(counter.name);
          return it == agg.indexes[i].counters.end()
                     ? "-"
                     : std::to_string(it->second);
        },
        std::to_string(counter.value));
  }

  for (const auto& histogram : agg.total.histograms) {
    const struct {
      const char* suffix;
      std::uint64_t (*field)(const obs::HistogramRow&);
    } sub_rows[] = {
        {".count", [](const obs::HistogramRow& r) { return r.count; }},
        {".sum", [](const obs::HistogramRow& r) { return r.sum; }},
        {".p50",
         [](const obs::HistogramRow& r) {
           return r.quantile_bound(0.50);
         }},
        {".p90",
         [](const obs::HistogramRow& r) {
           return r.quantile_bound(0.90);
         }},
        {".p99",
         [](const obs::HistogramRow& r) {
           return r.quantile_bound(0.99);
         }},
    };
    for (const auto& sub : sub_rows) {
      add_row(
          histogram.name + sub.suffix,
          [&](std::size_t i) -> std::string {
            const auto it = agg.indexes[i].histograms.find(histogram.name);
            return it == agg.indexes[i].histograms.end()
                       ? "-"
                       : std::to_string(sub.field(*it->second));
          },
          std::to_string(sub.field(histogram)));
    }
  }

  for (const auto& [name, total] : agg.total_events) {
    add_row(
        "events." + name,
        [&](std::size_t i) -> std::string {
          if (!runs[i].events.has_value()) return "-";
          const auto it = agg.indexes[i].events.find(name);
          return std::to_string(
              it == agg.indexes[i].events.end() ? 0 : it->second);
        },
        std::to_string(total));
  }
  if (agg.any_events) {
    add_row(
        "events.dropped",
        [&](std::size_t i) -> std::string {
          return runs[i].events.has_value()
                     ? std::to_string(runs[i].events->dropped)
                     : "-";
        },
        std::to_string(agg.total_dropped));
  }
  return table;
}

void write_report_json(const std::vector<RunDoc>& runs, std::ostream& out) {
  const Aggregate agg = aggregate(runs);

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
      json.key("counters").begin_array();
      for (const auto& row : run.metrics->counters) {
        json.begin_object();
        json.key("name").value(row.name);
        json.key("value").value(row.value);
        json.end_object();
      }
      json.end_array();
      json.key("histograms").begin_array();
      for (const auto& row : run.metrics->histograms) {
        write_histogram_summary(json, row);
      }
      json.end_array();
      json.end_object();
    } else {
      json.key("metrics").null();
    }
    if (run.events.has_value()) {
      json.key("events").begin_object();
      json.key("dropped").value(run.events->dropped);
      write_name_values(json, "counts", agg.indexes[i].events);
      json.end_object();
    } else {
      json.key("events").null();
    }
    json.end_object();
  }
  json.end_array();

  json.key("total").begin_object();
  json.key("counters").begin_array();
  for (const auto& row : agg.total.counters) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("value").value(row.value);
    json.end_object();
  }
  json.end_array();
  json.key("histograms").begin_array();
  for (const auto& row : agg.total.histograms) {
    write_histogram_summary(json, row);
  }
  json.end_array();
  write_name_values(json, "events", agg.total_events);
  json.key("events_dropped").value(agg.total_dropped);
  json.end_object();
  json.end_object();
}

}  // namespace nsrel::report
