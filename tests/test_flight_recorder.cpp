// Tests for the flight recorder and metrics documents: journal
// semantics (ordering, completeness, the disabled no-op, sequence
// scopes), MetricsSnapshot's exact delta/merge algebra under
// concurrent writers (TSan-covered), the nsrel-events-v1 /
// nsrel-metrics-v1 serialization loops with typed strict-parse
// failures, the `nsrel events` / `nsrel report` CLI surface — and the
// acceptance invariants: a faulted repair run's journal timeline counts
// equal the RepairReport exactly, the journal is complete and
// byte-identical at any --jobs (and with tracing on or off), and stdout
// is byte-identical with the recorder on or off.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "brick/object_store.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"
#include "repair/fault_schedule.hpp"
#include "repair/repair.hpp"
#include "report/events_doc.hpp"
#include "report/metrics_doc.hpp"
#include "report/summary.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nsrel {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t count_events(const report::EventsDoc& doc,
                         const std::string& name) {
  std::size_t count = 0;
  for (const report::EventRecord& event : doc.events) {
    if (event.name == name) ++count;
  }
  return count;
}

/// Arms the journal for the test body and leaves it disabled and empty
/// afterwards (the journal is process-global, like the registry).
struct JournalScope {
  JournalScope() { obs::Journal::instance().begin(); }
  ~JournalScope() {
    obs::Journal::instance().disable();
    obs::Journal::instance().clear();
  }
};

struct RegistryScope {
  RegistryScope() {
    obs::Registry::instance().reset();
    obs::Registry::instance().set_enabled(true);
  }
  ~RegistryScope() {
    obs::Registry::instance().set_enabled(false);
    obs::Registry::instance().reset();
  }
};

// --- Journal semantics ------------------------------------------------

TEST(Journal, DisabledRecordingIsANoOp) {
  obs::Journal::instance().disable();
  obs::Journal::instance().clear();
  ASSERT_FALSE(obs::Journal::enabled());
  obs::emit(obs::event::kCacheHit);
  EXPECT_TRUE(obs::Journal::instance().events().empty());
  std::ostringstream doc;
  report::write_events_ndjson(obs::Journal::instance().events(), doc);
  EXPECT_EQ(doc.str(), "{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n");
}

TEST(Journal, EventsComeBackStableSortedBySequenceScope) {
  const JournalScope scope;
  {
    const obs::ScopeGuard s2(2);
    obs::emit(obs::event::kCellClaim, {{"cell", std::uint64_t{1}}});
    obs::emit(obs::event::kCacheMiss);
  }
  {
    const obs::ScopeGuard s1(1);
    obs::emit(obs::event::kCellClaim, {{"cell", std::uint64_t{0}}});
    obs::emit(obs::event::kCacheHit);
  }
  const std::vector<obs::Record> events = obs::Journal::instance().events();
  ASSERT_EQ(events.size(), 4u);
  // Sorted by scope; single-thread emission order kept within a scope.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_STREQ(events[0].name, obs::event::kCellClaim.name);
  EXPECT_STREQ(events[1].name, obs::event::kCacheHit.name);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_STREQ(events[2].name, obs::event::kCellClaim.name);
  EXPECT_STREQ(events[3].name, obs::event::kCacheMiss.name);
}

TEST(Journal, BeginResetsEventsAndDroppedCount) {
  const JournalScope scope;
  auto& journal = obs::Journal::instance();
  for (int i = 0; i < 5; ++i) obs::emit(obs::event::kCacheHit);
  ASSERT_EQ(journal.events().size(), 5u);
  journal.begin();
  EXPECT_TRUE(journal.events().empty());
}

TEST(Journal, EveryEventIsKeptAndEachPairedCounterCountsIt) {
  const JournalScope journal_scope;
  const RegistryScope registry_scope;
  // Well past any per-thread buffer size: the journal keeps every event.
  constexpr std::uint64_t kEvents = 10'000;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    obs::emit(obs::event::kCacheHit, {{"n", i}});
  }
  const std::vector<obs::Record> events = obs::Journal::instance().events();
  ASSERT_EQ(events.size(), kEvents);
  EXPECT_EQ(events.front().args[0].uint_value, 0u);
  EXPECT_EQ(events.back().args[0].uint_value, kEvents - 1);
  // The same emit() call bumped the event's paired counter.
  std::uint64_t hits = 0;
  for (const auto& row : obs::Registry::instance().snapshot().counters) {
    if (row.name == obs::probe::kSolveCacheHits) hits = row.value;
  }
  EXPECT_EQ(hits, kEvents);
}

TEST(Journal, ScopeGuardNestsAndRestores) {
  EXPECT_EQ(obs::current_scope(), 0u);
  {
    const obs::ScopeGuard outer(5);
    EXPECT_EQ(obs::current_scope(), 5u);
    {
      const obs::ScopeGuard inner(9);
      EXPECT_EQ(obs::current_scope(), 9u);
    }
    EXPECT_EQ(obs::current_scope(), 5u);
  }
  EXPECT_EQ(obs::current_scope(), 0u);
}

TEST(Journal, EventArgsPastTheLimitAreDroppedSilently) {
  obs::Record event;
  event.arg({"a", std::uint64_t{1}})
      .arg({"b", std::uint64_t{2}})
      .arg({"c", std::uint64_t{3}})
      .arg({"d", std::uint64_t{4}})
      .arg({"e", std::uint64_t{5}});
  EXPECT_EQ(event.arg_count, obs::kMaxArgs);
}

// --- MetricsSnapshot algebra ------------------------------------------

TEST(MetricsSnapshot, MergeOfDeltaReproducesAfterExactly) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Counter counter = registry.counter("test.fr_counter");
  const obs::Histogram histogram = registry.histogram("test.fr_ns");
  registry.add(counter, 7);
  registry.record(histogram, 3);
  registry.record(histogram, 4100);
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  registry.add(counter, 11);
  registry.record(histogram, 1);
  registry.record(histogram, 1u << 20);
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();

  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::delta(before, after);
  EXPECT_EQ(obs::MetricsSnapshot::merge(before, delta), after);
  EXPECT_NE(before, after);
}

TEST(MetricsSnapshot, DeltaAndMergeAreExactUnderConcurrentWriters) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Counter counter = registry.counter("test.fr_conc");
  const obs::Histogram histogram = registry.histogram("test.fr_conc_ns");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  const auto burst = [&] {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&registry, counter, histogram] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          registry.add(counter);
          registry.record(histogram, i + 1);
        }
      });
    }
    for (auto& w : writers) w.join();
  };

  burst();
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  burst();
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();

  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::delta(before, after);
  EXPECT_EQ(obs::MetricsSnapshot::merge(before, delta), after);
  for (const auto& row : delta.counters) {
    if (row.name == "test.fr_conc") {
      EXPECT_EQ(row.value, kThreads * kPerThread);
    }
  }
  for (const auto& row : delta.histograms) {
    if (row.name == "test.fr_conc_ns") {
      EXPECT_EQ(row.count, kThreads * kPerThread);
      EXPECT_EQ(row.sum, kThreads * kPerThread * (kPerThread + 1) / 2);
    }
  }
}

// --- Serialization loops ----------------------------------------------

TEST(EventsDoc, NdjsonRoundTripsEveryFieldAndArgKind) {
  const JournalScope scope;
  auto& journal = obs::Journal::instance();
  {
    const obs::ScopeGuard s(3);
    obs::emit(obs::event::kSolveStart,
              {{"backend", "dense"}, {"states", std::uint64_t{12}}});
  }
  obs::emit_at(obs::event::kRepairBarrier, 7, 0.5,
               {{"batch", std::uint64_t{1}}, {"committed", std::uint64_t{42}}});
  obs::emit_at(obs::event::kRepairReplan, 8, 0.625,
               {{"invalidated", std::uint64_t{3}}});

  std::ostringstream ndjson;
  report::write_events_ndjson(journal.events(), ndjson);

  const Expected<report::EventsDoc> parsed =
      report::read_events_ndjson(ndjson.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
  const report::EventsDoc& doc = parsed.value();
  EXPECT_EQ(doc.dropped, 0u);
  ASSERT_EQ(doc.events.size(), 3u);

  EXPECT_EQ(doc.events[0].name, "solve.start");
  EXPECT_FALSE(doc.events[0].sim_domain);
  EXPECT_EQ(doc.events[0].seq, 3u);
  ASSERT_EQ(doc.events[0].args.size(), 2u);
  EXPECT_EQ(doc.events[0].args[0].key, "backend");
  EXPECT_EQ(doc.events[0].args[0].literal_value, "dense");
  EXPECT_EQ(doc.events[0].args[1].key, "states");
  EXPECT_EQ(doc.events[0].args[1].uint_value, 12u);

  EXPECT_EQ(doc.events[1].name, "repair.barrier");
  EXPECT_TRUE(doc.events[1].sim_domain);
  EXPECT_EQ(doc.events[1].seq, 7u);
  EXPECT_DOUBLE_EQ(doc.events[1].sim_seconds, 0.5);

  EXPECT_DOUBLE_EQ(doc.events[2].sim_seconds, 0.625);

  // Writing the same journal again produces the same bytes.
  std::ostringstream again;
  report::write_events_ndjson(journal.events(), again);
  EXPECT_EQ(ndjson.str(), again.str());
}

TEST(EventsDoc, MalformedJournalsAreTypedErrors) {
  for (const char* bad : {
           "",                                          // no header
           "{\"schema\":\"nope\",\"dropped\":0}\n",     // wrong schema
           "{\"dropped\":0}\n",                         // missing schema
           "{\"schema\":\"nsrel-events-v1\"}\n",        // missing dropped
           "{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n"
           "{\"domain\":\"seq\",\"seq\":1}\n",          // event w/o name
           "{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n"
           "{\"event\":\"x\",\"domain\":\"lunar\",\"seq\":1}\n",
           "{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n"
           "{\"event\":\"x\",\"domain\":\"seq\"",       // truncated line
           "{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n"
           "{\"event\":\"x\",\"domain\":\"sim\",\"seq\":1,\"t\":1e400}\n",
       }) {
    const Expected<report::EventsDoc> parsed =
        report::read_events_ndjson(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kMalformedDocument) << bad;
  }
}

TEST(MetricsDoc, JsonRoundTripsSnapshotFieldForField) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  registry.add(registry.counter("test.fr_doc"), 123456789);
  const obs::Histogram histogram = registry.histogram("test.fr_doc_ns");
  for (std::uint64_t v = 1; v < 1u << 16; v <<= 1) {
    registry.record(histogram, v);
  }
  const obs::MetricsSnapshot snapshot = obs::MetricsSnapshot::capture();

  std::ostringstream json;
  report::write_metrics_json(snapshot, json);
  const Expected<obs::MetricsSnapshot> parsed =
      report::read_metrics_json(json.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
  EXPECT_EQ(parsed.value(), snapshot);
}

TEST(MetricsDoc, MalformedDocumentsAreTypedErrors) {
  for (const char* bad : {
           "",
           "{}",
           "{\"schema\":\"nope\"}",
           "{\"schema\":\"nsrel-metrics-v1\"",  // truncated
           // A counter that overflows to +inf is no uint64.
           R"({"schema":"nsrel-metrics-v1","histograms":[],
               "counters":[{"name":"c","value":1e400}]})",
           // Bucket counts whose sum wraps uint64 to the empty 0.
           R"({"schema":"nsrel-metrics-v1","counters":[],"histograms":[
               {"name":"h","count":0,"sum":0,"min":0,"max":0,"p50":0,
                "p90":0,"p99":0,"buckets":[[0,9223372036854775808],
                                           [1,9223372036854775808]]}]})",
           // A non-empty histogram whose extremes are inverted.
           R"({"schema":"nsrel-metrics-v1","counters":[],"histograms":[
               {"name":"h","count":1,"sum":5,"min":9,"max":2,"p50":1,
                "p90":1,"p99":1,"buckets":[[1,1]]}]})",
       }) {
    const Expected<obs::MetricsSnapshot> parsed =
        report::read_metrics_json(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kMalformedDocument) << bad;
  }
}

TEST(MetricsDoc, ReaderRejectsTamperedPercentileSummary) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Histogram histogram = registry.histogram("test.fr_tamper");
  registry.record(histogram, 100);
  registry.record(histogram, 200);
  std::ostringstream json;
  report::write_metrics_json(obs::MetricsSnapshot::capture(), json);
  std::string text = json.str();
  // Corrupt the derived p99 so it disagrees with the buckets.
  const std::size_t at = text.find("\"p99\":");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "\"p99\":9");
  const Expected<obs::MetricsSnapshot> parsed =
      report::read_metrics_json(text);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, ErrorCode::kMalformedDocument);
}

TEST(Summary, ReportTableMergesMetricsAndEventsDocuments) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  registry.add(registry.counter("test.fr_sum"), 4);
  std::ostringstream metrics_json;
  report::write_metrics_json(obs::MetricsSnapshot::capture(), metrics_json);

  const JournalScope journal_scope;
  obs::emit(obs::event::kCacheHit);
  obs::emit(obs::event::kCacheHit);
  std::ostringstream events_ndjson;
  report::write_events_ndjson(obs::Journal::instance().events(),
                              events_ndjson);

  std::vector<report::RunDoc> runs;
  const Expected<report::RunDoc> metrics_doc =
      report::read_run_document("m.json", metrics_json.str());
  ASSERT_TRUE(metrics_doc.has_value());
  runs.push_back(metrics_doc.value());
  const Expected<report::RunDoc> events_doc =
      report::read_run_document("e.ndjson", events_ndjson.str());
  ASSERT_TRUE(events_doc.has_value());
  runs.push_back(events_doc.value());

  const Expected<report::Summary> summary = report::summarize(runs);
  ASSERT_TRUE(summary.has_value()) << summary.error().message();
  const std::string table = report::report_table(summary.value()).to_string();
  EXPECT_NE(table.find("test.fr_sum"), std::string::npos);
  EXPECT_NE(table.find("events.cache.hit"), std::string::npos);
  EXPECT_NE(table.find("m.json"), std::string::npos);
  EXPECT_NE(table.find("e.ndjson"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);

  const Expected<report::RunDoc> garbage =
      report::read_run_document("bad", "not a document");
  ASSERT_FALSE(garbage.has_value());
  EXPECT_EQ(garbage.error().code, ErrorCode::kMalformedDocument);
}

// --- Faulted repair: journal vs report --------------------------------

repair::RepairOptions soak_options(int jobs,
                                   std::vector<brick::ObjectId> objects,
                                   std::vector<std::size_t> sizes,
                                   std::uint64_t* degraded_decodes,
                                   std::uint64_t* failed_reads) {
  repair::RepairOptions options;
  options.jobs = jobs;
  options.timing.bytes_per_second = 4.0 * 1024.0 * 1024.0;
  options.on_barrier = [objects = std::move(objects),
                        sizes = std::move(sizes), degraded_decodes,
                        failed_reads](brick::ObjectStore& store, double) {
    workload::WorkloadParams wl;
    wl.operations = 16;
    wl.read_bytes = 256;
    wl.seed = 0xBEEF;
    const workload::WorkloadResult result =
        workload::run_read_workload(store, objects, sizes, wl);
    if (degraded_decodes != nullptr) {
      *degraded_decodes += result.io.decode_operations;
    }
    if (failed_reads != nullptr) *failed_reads += result.failed_reads;
  };
  return options;
}

struct FaultedRun {
  repair::RepairReport report;
  std::string ndjson;
  std::uint64_t degraded_decodes = 0;
  std::uint64_t failed_reads = 0;
};

/// Builds a deterministic degraded store, arms the journal, runs a
/// faulted repair with foreground reads at every barrier, and returns
/// the report plus the exported journal bytes.
FaultedRun faulted_repair_run(int jobs) {
  brick::StoreParams p;
  p.node_count = 12;
  p.drives_per_node = 3;
  p.drive_capacity = kilobytes(512.0);
  p.redundancy_set_size = 6;
  p.fault_tolerance = 2;
  p.chunk_size = Bytes(256.0);

  brick::ObjectStore store(p);
  Xoshiro256 rng(0xF11E);
  std::vector<brick::ObjectId> objects;
  std::vector<std::size_t> sizes;
  const std::size_t object_size = 4 * 256;
  for (int i = 0; i < 600; ++i) {
    std::vector<std::uint8_t> bytes(object_size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    objects.push_back(store.write(bytes));
    sizes.push_back(object_size);
  }
  store.fail_node(2);

  const Expected<repair::FaultSchedule> schedule =
      repair::parse_fault_schedule(
          "after:100 node:7; after:250 drive:5.1; before:400 node:7");
  EXPECT_TRUE(schedule.has_value());

  FaultedRun run;
  const repair::RepairOptions options =
      soak_options(jobs, objects, sizes, &run.degraded_decodes,
                   &run.failed_reads);

  obs::Journal::instance().begin();
  run.report = repair::run_repair(store, schedule.value(), options);
  obs::Journal::instance().disable();
  std::ostringstream ndjson;
  report::write_events_ndjson(obs::Journal::instance().events(), ndjson);
  obs::Journal::instance().clear();
  run.ndjson = ndjson.str();
  return run;
}

TEST(RepairJournal, TimelineCountsEqualTheRepairReportExactly) {
  const FaultedRun run = faulted_repair_run(/*jobs=*/4);
  const Expected<report::EventsDoc> parsed =
      report::read_events_ndjson(run.ndjson);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
  const report::EventsDoc& doc = parsed.value();
  ASSERT_FALSE(doc.events.empty());

  // Faults: schedule events that changed state carry applied=1; the
  // deliberate node-7 repeat fires with applied=0.
  std::uint64_t faults_fired = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t replans = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  for (const report::EventRecord& event : doc.events) {
    if (event.name == "repair.fault") {
      ++faults_fired;
      for (const auto& arg : event.args) {
        if (arg.key == "applied") faults_applied += arg.uint_value;
      }
    } else if (event.name == "repair.replan") {
      for (const auto& arg : event.args) {
        if (arg.key == "invalidated") replans += arg.uint_value;
      }
    } else if (event.name == "repair.retry") {
      ++retries;
    } else if (event.name == "brick.degraded_read") {
      ++degraded;
    } else if (event.name == "workload.read_failed") {
      ++failed;
    }
  }

  EXPECT_EQ(faults_fired, 3u);  // every schedule event fired
  EXPECT_EQ(faults_applied, run.report.injected_faults);
  EXPECT_EQ(replans, run.report.replans);
  EXPECT_EQ(retries, run.report.retries);
  EXPECT_EQ(degraded, run.degraded_decodes);
  EXPECT_EQ(failed, run.failed_reads);
  EXPECT_GT(faults_applied, 0u);
  EXPECT_GT(replans, 0u);
  EXPECT_GT(degraded, 0u);  // foreground service ran while degraded

  // One barrier event per batch, strictly increasing batch index.
  std::uint64_t last_batch = 0;
  for (const report::EventRecord& event : doc.events) {
    if (event.name != "repair.barrier") continue;
    for (const auto& arg : event.args) {
      if (arg.key == "batch") {
        EXPECT_EQ(arg.uint_value, last_batch + 1);
        last_batch = arg.uint_value;
      }
    }
  }
  EXPECT_GT(last_batch, 0u);

  // The batches rollup renders one row per barrier (plus a possible
  // trailing row for events after the last barrier).
  const report::Table batches = report::events_batches_table(doc);
  EXPECT_GE(batches.row_count(), last_batch);
}

TEST(RepairJournal, JournalIsByteIdenticalAtAnyJobsCount) {
  const FaultedRun serial = faulted_repair_run(/*jobs=*/1);
  const FaultedRun parallel = faulted_repair_run(/*jobs=*/4);
  ASSERT_FALSE(serial.ndjson.empty());
  EXPECT_EQ(serial.ndjson, parallel.ndjson);
  EXPECT_EQ(render_repair_report(serial.report),
            render_repair_report(parallel.report));
}

// --- CLI surface ------------------------------------------------------

struct CliResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<const char*> tokens) {
  const cli::Args args(
      std::vector<std::string>(tokens.begin(), tokens.end()));
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::dispatch(args, out, err);
  return {rc, out.str(), err.str()};
}

TEST(EventsCli, SweepStdoutByteIdenticalWithRecorderOnAtAnyJobs) {
  const CliResult plain = run_cli({"sweep", "--steps", "4"});
  ASSERT_EQ(plain.exit_code, 0);

  const std::string events1 = temp_path("fr_sweep_j1.ndjson");
  const std::string events8 = temp_path("fr_sweep_j8.ndjson");
  const std::string metrics1 = temp_path("fr_sweep_j1.metrics.json");
  const CliResult run1 =
      run_cli({"sweep", "--steps", "4", "--jobs", "1", "--events",
               events1.c_str(), "--metrics-out", metrics1.c_str()});
  const CliResult run8 = run_cli({"sweep", "--steps", "4", "--jobs", "8",
                                  "--events", events8.c_str()});
  ASSERT_EQ(run1.exit_code, 0) << run1.err;
  ASSERT_EQ(run8.exit_code, 0) << run8.err;
  EXPECT_EQ(plain.out, run1.out);
  EXPECT_EQ(plain.out, run8.out);

  // The journal itself is byte-identical at any --jobs.
  const std::string journal1 = slurp(events1);
  ASSERT_FALSE(journal1.empty());
  EXPECT_EQ(journal1, slurp(events8));

  // It parses strictly and records the sweep's cells and solves.
  const Expected<report::EventsDoc> parsed =
      report::read_events_ndjson(journal1);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
  EXPECT_GE(count_events(parsed.value(), "cell.claim"), 4u);
  EXPECT_GE(count_events(parsed.value(), "solve.start"), 1u);
  EXPECT_EQ(count_events(parsed.value(), "solve.start"),
            count_events(parsed.value(), "solve.end"));

  // The metrics document parses and round-trips exactly.
  const Expected<obs::MetricsSnapshot> metrics =
      report::read_metrics_json(slurp(metrics1));
  ASSERT_TRUE(metrics.has_value()) << metrics.error().message();
  std::ostringstream rewritten;
  report::write_metrics_json(metrics.value(), rewritten);
  EXPECT_EQ(rewritten.str(), slurp(metrics1));
}

TEST(EventsCli, LongSweepJournalIsCompleteAndJobsInvariant) {
  // 1500 cells journal ~7500 events: far past the 4096-slot ring the
  // journal used to be, which dropped a schedule-dependent set of them.
  std::string reference;
  for (const char* jobs : {"1", "4", "8"}) {
    const std::string path =
        temp_path(std::string("fr_long_sweep_j") + jobs + ".ndjson");
    const CliResult run = run_cli(
        {"sweep", "--param", "node-mttf", "--from", "1e5", "--to", "1e6",
         "--steps", "1500", "--jobs", jobs, "--events", path.c_str()});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    const std::string journal = slurp(path);
    EXPECT_EQ(journal.rfind("{\"schema\":\"nsrel-events-v1\",\"dropped\":0}\n", 0),
              0u)
        << jobs;
    const Expected<report::EventsDoc> parsed =
        report::read_events_ndjson(journal);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
    EXPECT_EQ(parsed.value().dropped, 0u);
    EXPECT_EQ(count_events(parsed.value(), "cell.claim"), 1500u) << jobs;
    if (reference.empty()) {
      reference = journal;
    } else {
      EXPECT_EQ(journal, reference) << "--jobs " << jobs;
    }
  }
}

TEST(EventsCli, TracingDoesNotChangeTheJournalBytes) {
  // Spans and events share each thread's lane; the journal exporter
  // must see only the events.
  for (const char* jobs : {"1", "8"}) {
    const std::string plain = temp_path("fr_untraced.ndjson");
    const std::string traced = temp_path("fr_traced.ndjson");
    const std::string trace = temp_path("fr_traced.trace.json");
    const CliResult a = run_cli({"sweep", "--steps", "6", "--jobs", jobs,
                                 "--events", plain.c_str()});
    const CliResult b =
        run_cli({"sweep", "--steps", "6", "--jobs", jobs, "--events",
                 traced.c_str(), "--trace", trace.c_str(), "--metrics"});
    ASSERT_EQ(a.exit_code, 0) << a.err;
    ASSERT_EQ(b.exit_code, 0) << b.err;
    EXPECT_EQ(a.out, b.out);
    ASSERT_FALSE(slurp(plain).empty());
    EXPECT_EQ(slurp(plain), slurp(traced)) << "--jobs " << jobs;
    EXPECT_NE(slurp(trace).find("\"name\": \"cell\""), std::string::npos);
  }
}

TEST(EventsCli, EventsCommandRendersTimelineBatchesCsvAndJson) {
  const std::string path = temp_path("fr_cli_events.ndjson");
  const CliResult sweep = run_cli(
      {"sweep", "--steps", "3", "--events", path.c_str()});
  ASSERT_EQ(sweep.exit_code, 0) << sweep.err;

  const CliResult timeline = run_cli({"events", path.c_str()});
  EXPECT_EQ(timeline.exit_code, 0) << timeline.err;
  EXPECT_NE(timeline.out.find("event"), std::string::npos);
  EXPECT_NE(timeline.out.find("cell.claim"), std::string::npos);

  const CliResult batches =
      run_cli({"events", path.c_str(), "--view", "batches"});
  EXPECT_EQ(batches.exit_code, 0) << batches.err;

  const CliResult csv =
      run_cli({"events", path.c_str(), "--format", "csv"});
  EXPECT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.out.find("cell.claim"), std::string::npos);

  const CliResult json =
      run_cli({"events", path.c_str(), "--format", "json"});
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_NE(json.out.find("\"schema\": \"nsrel-events-v1\""),
            std::string::npos);
}

TEST(EventsCli, EventsCommandFailsTypedOnMissingOrMalformedInput) {
  const CliResult missing = run_cli({"events", "/no/such/journal.ndjson"});
  EXPECT_NE(missing.exit_code, 0);
  EXPECT_NE(missing.err.find("cannot open"), std::string::npos);

  const std::string path = temp_path("fr_cli_bad.ndjson");
  {
    std::ofstream out(path);
    out << "{\"schema\":\"wrong\"}\n";
  }
  const CliResult malformed = run_cli({"events", path.c_str()});
  EXPECT_NE(malformed.exit_code, 0);
  EXPECT_NE(malformed.err.find("error"), std::string::npos);
}

TEST(EventsCli, ReportCommandAggregatesAcrossDocuments) {
  const std::string events = temp_path("fr_report_events.ndjson");
  const std::string metrics = temp_path("fr_report_metrics.json");
  const CliResult sweep =
      run_cli({"sweep", "--steps", "3", "--events", events.c_str(),
               "--metrics-out", metrics.c_str()});
  ASSERT_EQ(sweep.exit_code, 0) << sweep.err;

  const CliResult table =
      run_cli({"report", metrics.c_str(), events.c_str()});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("total"), std::string::npos);
  EXPECT_NE(table.out.find("events.cell.claim"), std::string::npos);
  EXPECT_NE(table.out.find("solve_cache"), std::string::npos);

  const CliResult json = run_cli(
      {"report", metrics.c_str(), events.c_str(), "--format", "json"});
  EXPECT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"schema\": \"nsrel-report-v1\""),
            std::string::npos);

  const CliResult missing = run_cli({"report", "/no/such/doc.json"});
  EXPECT_NE(missing.exit_code, 0);
}

TEST(EventsCli, ReportTotalThatOverflowsIsATypedUsageErrorNamingTheRow) {
  const std::string text =
      R"({"schema":"nsrel-metrics-v1","histograms":[],)"
      R"("counters":[{"name":"c","value":18446744073709551615}]})";
  const Expected<report::RunDoc> doc = report::read_run_document("a", text);
  ASSERT_TRUE(doc.has_value()) << doc.error().message();
  const Expected<report::Summary> summary =
      report::summarize({doc.value(), doc.value()});
  ASSERT_FALSE(summary.has_value());
  EXPECT_EQ(summary.error().code, ErrorCode::kInvalidParameter);
  EXPECT_EQ(summary.error().layer, "report.summary");
  EXPECT_NE(summary.error().detail.find("'c'"), std::string::npos);

  // `nsrel report` exits with the usage code, as for a malformed input.
  const std::string path = temp_path("fr_report_overflow.json");
  {
    std::ofstream out(path);
    out << text;
  }
  const CliResult cli = run_cli({"report", path.c_str(), path.c_str()});
  EXPECT_EQ(cli.exit_code, cli::kExitUsage);
  EXPECT_TRUE(cli.out.empty()) << cli.out;
  EXPECT_NE(cli.err.find("overflows"), std::string::npos) << cli.err;
}

TEST(EventsCli, ScenarioOutputKeyWritesJournal) {
  const std::string scenario_path = temp_path("fr_scenario.toml");
  const std::string events_path = temp_path("fr_scenario_events.ndjson");
  {
    std::ofstream out(scenario_path);
    out << "[configurations]\n"
        << "list = none-ft2\n"
        << "[sweep]\n"
        << "param = drive-mttf\n"
        << "from = 100e3\n"
        << "to = 200e3\n"
        << "steps = 2\n"
        << "[output]\n"
        << "events = " << events_path << "\n";
  }
  const CliResult run =
      run_cli({"scenario", "--file", scenario_path.c_str()});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const Expected<report::EventsDoc> parsed =
      report::read_events_ndjson(slurp(events_path));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message();
  EXPECT_GE(count_events(parsed.value(), "cell.claim"), 2u);
}

TEST(EventsCli, CommandLineFlagsWinOverScenarioOutputKeys) {
  const std::string scenario_path = temp_path("fr_scenario_flags.toml");
  const std::string file_events = temp_path("fr_file_events.ndjson");
  const std::string file_trace = temp_path("fr_file_trace.json");
  const std::string cli_events = temp_path("fr_cli_events.ndjson");
  const std::string cli_trace = temp_path("fr_cli_trace.json");
  for (const std::string& path :
       {file_events, file_trace, cli_events, cli_trace}) {
    std::remove(path.c_str());
  }
  {
    std::ofstream out(scenario_path);
    out << "[configurations]\nlist = none-ft2\n[output]\n"
        << "events = " << file_events << "\n"
        << "trace = " << file_trace << "\n";
  }
  const CliResult run =
      run_cli({"scenario", "--file", scenario_path.c_str(), "--events",
               cli_events.c_str(), "--trace", cli_trace.c_str()});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  // The command line's session owns both channels: its files are
  // written, and the file's keys neither restart them nor write.
  EXPECT_GE(count_events(report::read_events_ndjson(slurp(cli_events)).value(),
                         "cell.claim"),
            1u);
  EXPECT_NE(slurp(cli_trace).find("\"name\": \"cell\""), std::string::npos);
  EXPECT_TRUE(slurp(file_events).empty());
  EXPECT_TRUE(slurp(file_trace).empty());
}

}  // namespace
}  // namespace nsrel
