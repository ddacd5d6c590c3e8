// Microbenchmarks (google-benchmark) for the one observability recorder:
// the disabled-probe cost every instrumented line in src/ pays on a
// plain run (one relaxed load of the channel gate), an armed journal
// event and an armed trace span appended to the thread's lane, and the
// MetricsSnapshot delta/merge algebra `nsrel report` is built on.
// Counters are deterministic (records kept per probe fired, rows
// merged), so tools/bench_diff.py can hard-fail a run that did different
// work than the committed baseline even when wall-clock shifts.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "perf_json.hpp"

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace {

using namespace nsrel;

// The journal is complete, so armed loops would grow the lane without
// bound; outside the timed region they count and drop what each batch
// of kBatch probes kept.
constexpr std::uint64_t kBatch = 4096;

/// Journal events plus trace spans currently held by the recorder.
std::uint64_t kept_records() {
  std::ostringstream out;
  obs::TraceRecorder::instance().write(out);
  const std::string trace = out.str();
  std::uint64_t records = obs::Journal::instance().events().size();
  for (std::size_t at = trace.find("\"ph\""); at != std::string::npos;
       at = trace.find("\"ph\"", at + 1)) {
    ++records;
  }
  return records;
}

/// Counts and drops the recorder's records (timing paused).
void settle_batch(benchmark::State& state, std::uint64_t& kept) {
  state.PauseTiming();
  kept += kept_records();
  obs::Recorder::instance().clear(obs::kTrace | obs::kJournal);
  state.ResumeTiming();
}

// A paired probe with every channel off: the cost of each emit() and
// Span in src/ on an unobserved run.
void BM_GateDisabled(benchmark::State& state) {
  obs::Recorder::instance().disable(obs::kMetrics | obs::kTrace |
                                    obs::kJournal);
  obs::Recorder::instance().clear(obs::kMetrics | obs::kTrace |
                                  obs::kJournal);
  for (auto _ : state) {
    obs::emit(obs::event::kCacheHit);
    const obs::Span span(obs::probe::kSpanSolve, obs::probe::kSpanCategoryCore);
  }
  state.counters["records_kept"] = static_cast<double>(kept_records());
}
BENCHMARK(BM_GateDisabled);

// Armed event append into the thread's lane (journal on, metrics off).
void BM_EventArmed(benchmark::State& state) {
  obs::Journal::instance().begin();
  std::uint64_t kept = 0;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    obs::emit(obs::event::kSimChunk, {{"stream", fired}});
    if (++fired % kBatch == 0) settle_batch(state, kept);
  }
  obs::Journal::instance().disable();
  kept += kept_records();
  obs::Journal::instance().clear();
  // Per-iteration so the value is exact regardless of how many
  // iterations google-benchmark chose: 1 event kept per probe fired.
  state.counters["events_per_iter"] =
      static_cast<double>(kept) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EventArmed);

// Armed span: two clock reads and one append (trace on).
void BM_SpanArmed(benchmark::State& state) {
  obs::TraceRecorder::instance().begin();
  std::uint64_t kept = 0;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    {
      obs::Span span(obs::probe::kSpanChunk, obs::probe::kSpanCategorySim);
      span.arg("stream", fired);
    }
    if (++fired % kBatch == 0) settle_batch(state, kept);
  }
  obs::TraceRecorder::instance().disable();
  kept += kept_records();
  obs::TraceRecorder::instance().clear();
  state.counters["spans_per_iter"] =
      static_cast<double>(kept) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SpanArmed);

// The exact snapshot algebra behind --metrics-out and `nsrel report`:
// delta(before, after) then merge(before, delta) over a registry-sized
// row set. merge(a, delta(a, b)) == b is the correctness invariant the
// tests pin; this pins its cost.
void BM_SnapshotDelta(benchmark::State& state) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  const obs::Counter counter =
      registry.counter(obs::probe::kSolveCacheHits);
  const obs::Histogram histogram =
      registry.histogram(obs::probe::kSolveCacheInsertNs);
  registry.add(counter, 3);
  for (std::uint64_t v = 1; v < 1u << 10; v <<= 1) {
    registry.record(histogram, v);
  }
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  registry.add(counter, 40);
  for (std::uint64_t v = 1; v < 1u << 14; v <<= 1) {
    registry.record(histogram, v);
  }
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();
  registry.set_enabled(false);

  std::uint64_t rows = 0;
  for (auto _ : state) {
    const obs::MetricsSnapshot delta =
        obs::MetricsSnapshot::delta(before, after);
    const obs::MetricsSnapshot merged =
        obs::MetricsSnapshot::merge(before, delta);
    rows += merged.counters.size() + merged.histograms.size();
    benchmark::DoNotOptimize(merged);
  }
  // Rows in one merged snapshot — a fixed property of the registry's
  // probe set, not of the iteration count.
  state.counters["rows_per_merge"] =
      static_cast<double>(rows) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotDelta);

}  // namespace

int main(int argc, char** argv) {
  return nsrel::bench::perf_main(argc, argv, "perf_obs");
}
