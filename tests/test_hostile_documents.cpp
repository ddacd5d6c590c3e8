// Deterministic hostile-input sweep over the three JSON documents the
// report layer reads back: one writer-produced nsrel-resultset-v3
// document (analytic, internal-RAID, sim and error cells), one
// nsrel-metrics-v1 document (counters and a histogram) and one
// nsrel-events-v1 journal (seq- and sim-domain events). Every
// truncation prefix and every single-byte substitution from a small
// JSON-shaped alphabet must read as a value or fail with a typed
// kMalformedDocument — never throw, crash or trip a sanitizer — and an
// accepted resultset or metrics mutant must be a fixed point of
// write(read(x)): what a reader accepts, its writer can write and the
// reader takes back unchanged.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"
#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"
#include "report/events_doc.hpp"
#include "report/metrics_doc.hpp"
#include "report/resultset_doc.hpp"
#include "util/error.hpp"

namespace nsrel::report {
namespace {

constexpr std::string_view kAlphabet = "{}[]\",:09- e";

std::string resultset_bytes(const ResultSetDoc& doc) {
  std::ostringstream out;
  write_resultset_json(doc, out);
  return out.str();
}

std::string metrics_bytes(const obs::MetricsSnapshot& snapshot) {
  std::ostringstream out;
  write_metrics_json(snapshot, out);
  return out.str();
}

std::string resultset_document() {
  ResultSetDoc doc;
  doc.method = "exact";
  doc.axes = {{"drive-mttf"}};
  doc.points = {{"1e5", {1e5}}};
  doc.configurations = {"a", "b", "c", "d"};
  AnalyticCellDoc plain{1.5e6, 0.25, 2e-3, 3e15, 12.5, "disk", false,
                        0.0,   0.0,  0.0};
  AnalyticCellDoc internal_raid = plain;
  internal_raid.node_rebuild_bottleneck = "network";
  internal_raid.has_internal_raid = true;
  internal_raid.array_failure_per_hour = 1e-7;
  internal_raid.sector_error_per_hour = 2e-9;
  internal_raid.restripe_hours = 0.5;
  doc.cells = {{0, 0, plain},
               {0, 1, internal_raid},
               {0, 2, SimCellDoc{3.3e6, 6e6, 2e5, 2.9e6, 3.7e6, 1024,
                                 ~std::uint64_t{0}}},
               {0, 3, ErrorCellDoc{"singular_generator", "ctmc", "x"}}};
  return resultset_bytes(doc);
}

std::string metrics_document() {
  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"a", 3}, {"b", ~std::uint64_t{0}}};
  obs::HistogramRow histogram;
  histogram.name = "h";
  histogram.count = 3;
  histogram.sum = 106;
  histogram.min = 1;
  histogram.max = 100;
  histogram.buckets[1] = 1;
  histogram.buckets[3] = 1;
  histogram.buckets[7] = 1;
  snapshot.histograms = {histogram};
  return metrics_bytes(snapshot);
}

std::string events_document() {
  auto& journal = obs::Journal::instance();
  journal.begin();
  obs::emit(obs::event::kSolveStart,
            {{"backend", "dense"}, {"states", std::uint64_t{12}}});
  obs::emit_at(obs::event::kRepairBarrier, 7, 0.5,
               {{"batch", std::uint64_t{1}}, {"share", 0.25}});
  std::ostringstream out;
  write_events_ndjson(journal.events(), out);
  journal.disable();
  journal.clear();
  return out.str();
}

/// Runs `check` on every truncation prefix and single-byte substitution
/// of `text`; returns how many mutants were accepted.
std::size_t sweep(const std::string& text,
                  const std::function<bool(const std::string&)>& check) {
  std::size_t accepted = 0;
  for (std::size_t n = 0; n < text.size(); ++n) {
    if (check(text.substr(0, n))) ++accepted;
  }
  std::string mutant = text;
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char c : kAlphabet) {
      if (c == text[i]) continue;
      mutant[i] = c;
      if (check(mutant)) ++accepted;
    }
    mutant[i] = text[i];
  }
  return accepted;
}

/// True when `result` holds a value; otherwise records a failure unless
/// the error is a typed kMalformedDocument.
template <typename T>
bool accepted(const Expected<T>& result, const std::string& mutant) {
  if (result.has_value()) return true;
  EXPECT_EQ(result.error().code, ErrorCode::kMalformedDocument)
      << result.error().message() << "\n"
      << mutant;
  return false;
}

TEST(HostileDocuments, EveryMutantReadsOrFailsTypedAndRewritesToAFixedPoint) {
  const std::string resultset = resultset_document();
  ASSERT_TRUE(read_resultset_json(resultset).has_value());
  const std::size_t resultset_accepted =
      sweep(resultset, [](const std::string& mutant) {
        const Expected<ResultSetDoc> doc = read_resultset_json(mutant);
        if (!accepted(doc, mutant)) return false;
        const std::string written = resultset_bytes(doc.value());
        const Expected<ResultSetDoc> again = read_resultset_json(written);
        EXPECT_TRUE(again.has_value()) << mutant;
        if (again.has_value()) {
          EXPECT_EQ(resultset_bytes(again.value()), written) << mutant;
        }
        return true;
      });

  const std::string metrics = metrics_document();
  ASSERT_TRUE(read_metrics_json(metrics).has_value());
  const std::size_t metrics_accepted =
      sweep(metrics, [](const std::string& mutant) {
        const Expected<obs::MetricsSnapshot> doc = read_metrics_json(mutant);
        if (!accepted(doc, mutant)) return false;
        const std::string written = metrics_bytes(doc.value());
        const Expected<obs::MetricsSnapshot> again =
            read_metrics_json(written);
        EXPECT_TRUE(again.has_value()) << mutant;
        if (again.has_value()) {
          EXPECT_EQ(metrics_bytes(again.value()), written) << mutant;
        }
        return true;
      });

  const std::string events = events_document();
  ASSERT_TRUE(read_events_ndjson(events).has_value()) << events;
  const std::size_t events_accepted =
      sweep(events, [](const std::string& mutant) {
        return accepted(read_events_ndjson(mutant), mutant);
      });

  // Whitespace and digit substitutions keep some mutants valid, so each
  // sweep exercises the accept path as well as the reject path.
  EXPECT_GT(resultset_accepted, 0u);
  EXPECT_GT(metrics_accepted, 0u);
  EXPECT_GT(events_accepted, 0u);
}

}  // namespace
}  // namespace nsrel::report
