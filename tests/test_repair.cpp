// Tests for the concurrent repair engine: fault-schedule parsing, clean
// and degraded repair lifecycles, the mid-rebuild failure-injection
// matrix, jobs-invariance (byte-identical store state and report at any
// --jobs), typed capacity/data-loss outcomes, and the analytic
// cross-validations against rebuild::RebuildPlanner's section-5.1 flows,
// rebuild::DegradedModel's read amplification, and the no-internal-RAID
// MTTDL under compressed Poisson fault schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "brick/object_store.hpp"
#include "ctmc/chain.hpp"
#include "ctmc/transient.hpp"
#include "models/no_internal_raid.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "rebuild/degraded.hpp"
#include "rebuild/planner.hpp"
#include "repair/fault_schedule.hpp"
#include "repair/repair.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nsrel::repair {
namespace {

using brick::ObjectId;
using brick::ObjectStore;
using brick::StoreParams;

std::vector<std::uint8_t> random_bytes(std::size_t size, Xoshiro256& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

StoreParams small_params() {
  StoreParams p;
  p.node_count = 12;
  p.drives_per_node = 3;
  p.drive_capacity = kilobytes(256.0);
  p.redundancy_set_size = 6;
  p.fault_tolerance = 2;
  p.chunk_size = kilobytes(1.0);
  return p;
}

/// Builds a store with `objects` random objects of `object_size` bytes,
/// deterministically from `seed` — two calls build byte-identical stores
/// (the jobs-invariance tests rely on this).
ObjectStore populated_store(const StoreParams& params, int objects,
                            std::size_t object_size, std::uint64_t seed) {
  ObjectStore store(params);
  Xoshiro256 rng(seed);
  for (int i = 0; i < objects; ++i) {
    (void)store.write(random_bytes(object_size, rng));
  }
  return store;
}

FaultSchedule parse_ok(const std::string& text) {
  const Expected<FaultSchedule> parsed = parse_fault_schedule(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? parsed.value() : FaultSchedule{};
}

// --- fault-schedule format --------------------------------------------

TEST(FaultSchedule, ParsesEveryTriggerAndFaultKind) {
  const FaultSchedule s =
      parse_ok("before:0 node:3; after:2 drive:1.0; time:0.5 node:7;");
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].trigger, TriggerKind::kBeforeTask);
  EXPECT_EQ(s.events[0].index, 0u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kNode);
  EXPECT_EQ(s.events[0].node, 3);
  EXPECT_EQ(s.events[1].trigger, TriggerKind::kAfterTask);
  EXPECT_EQ(s.events[1].index, 2u);
  EXPECT_EQ(s.events[1].kind, FaultKind::kDrive);
  EXPECT_EQ(s.events[1].node, 1);
  EXPECT_EQ(s.events[1].drive, 0);
  EXPECT_EQ(s.events[2].trigger, TriggerKind::kAtTime);
  EXPECT_DOUBLE_EQ(s.events[2].time_seconds, 0.5);
  EXPECT_EQ(s.events[2].node, 7);
}

TEST(FaultSchedule, FormatRoundTripsThroughParser) {
  const FaultSchedule s =
      parse_ok("before:4 drive:2.3; after:0 node:11; time:1.25 drive:0.0");
  for (const FaultEvent& event : s.events) {
    const FaultSchedule again = parse_ok(format_fault_event(event));
    ASSERT_EQ(again.events.size(), 1u);
    EXPECT_EQ(again.events[0], event);
  }
}

TEST(FaultSchedule, RejectsMalformedInput) {
  for (const char* bad :
       {"nonsense", "before:x node:1", "before:1 gremlin:2", "when:3 node:1",
        "before:2 node:abc", "time:-1 node:0", "after:1 drive:5",
        "before:1", "node:3 before:1"}) {
    const Expected<FaultSchedule> parsed = parse_fault_schedule(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidParameter) << bad;
  }
}

TEST(FaultSchedule, EmptyAndBlankInputsAreEmptySchedules) {
  EXPECT_TRUE(parse_ok("").empty());
  EXPECT_TRUE(parse_ok("  ;  ; ").empty());
}

// --- planning ----------------------------------------------------------

TEST(RepairPlan, PartitionsLostShardsIntoOrderedPerStripeTasks) {
  ObjectStore store = populated_store(small_params(), 20, 9000, 0xA11CE);
  ASSERT_TRUE(plan_repair(store).tasks.empty());  // healthy: nothing to do
  store.fail_node(2);
  const RepairPlan plan = plan_repair(store);
  const std::vector<brick::StripeRef> degraded = store.degraded_stripes();
  ASSERT_EQ(plan.tasks.size(), degraded.size());
  ASSERT_FALSE(plan.tasks.empty());
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    EXPECT_EQ(plan.tasks[i].stripe, degraded[i]);
    ASSERT_EQ(plan.tasks[i].lost_shards.size(), 1u);  // one node failed
    if (i > 0) {
      EXPECT_TRUE(plan.tasks[i - 1].stripe < plan.tasks[i].stripe);
    }
  }
  EXPECT_EQ(plan.shard_count(), degraded.size());
}

// --- clean repair lifecycle -------------------------------------------

TEST(RepairRun, RestoresFullRedundancyAfterNodeFailure) {
  Xoshiro256 rng(7);
  ObjectStore store(small_params());
  std::map<ObjectId, std::vector<std::uint8_t>> originals;
  for (int i = 0; i < 15; ++i) {
    const auto bytes = random_bytes(8000, rng);
    originals[store.write(bytes)] = bytes;
  }
  store.fail_node(4);
  const std::size_t degraded = store.degraded_stripes().size();
  ASSERT_GT(degraded, 0u);

  const RepairReport report = run_repair(store);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
  EXPECT_EQ(report.stripes_attempted, degraded);
  EXPECT_EQ(report.shards_repaired, degraded);  // one shard lost per stripe
  EXPECT_EQ(report.stripes_failed, 0u);
  EXPECT_EQ(report.outcomes.size(), degraded);
  for (const RepairOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.result.has_value());
  }
  for (const auto& [id, bytes] : originals) EXPECT_EQ(store.read(id), bytes);

  // Re-running on the repaired store is a no-op.
  const RepairReport again = run_repair(store);
  EXPECT_EQ(again.stripes_attempted, 0u);
  EXPECT_EQ(again.shards_repaired, 0u);
  EXPECT_DOUBLE_EQ(again.duration_seconds, 0.0);
}

TEST(RepairRun, RepairsUpToToleranceManyFailures) {
  ObjectStore store = populated_store(small_params(), 15, 8000, 0xBEEF);
  store.fail_node(0);
  store.fail_drive(3, 1);  // t = 2: node + drive concurrently is repairable
  const RepairReport report = run_repair(store);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
}

TEST(RepairRun, BeyondToleranceBecomesTypedDataLossOutcomes) {
  ObjectStore store = populated_store(small_params(), 15, 8000, 0xD00D);
  store.fail_node(0);
  store.fail_node(1);
  store.fail_node(2);  // t = 2: stripes holding all three are gone
  std::size_t lost_stripes = 0;
  for (const brick::StripeRef& ref : store.degraded_stripes()) {
    if (store.stripe_status(ref).missing() > 2) ++lost_stripes;
  }
  ASSERT_GT(lost_stripes, 0u);

  const RepairReport report = run_repair(store);  // must not throw
  EXPECT_EQ(report.stripes_failed, lost_stripes);
  std::size_t data_loss_outcomes = 0;
  for (const RepairOutcome& outcome : report.outcomes) {
    if (!outcome.result.has_value()) {
      EXPECT_EQ(outcome.result.error().code, ErrorCode::kDataLoss);
      ++data_loss_outcomes;
    }
  }
  EXPECT_EQ(data_loss_outcomes, lost_stripes);
  // Every stripe not beyond tolerance was still repaired.
  for (const brick::StripeRef& ref : store.degraded_stripes()) {
    EXPECT_GT(store.stripe_status(ref).missing(), 2);
  }
}

TEST(RepairRun, NoSpareTargetBecomesTypedCapacityOutcomeAfterRetries) {
  // node_count == R: a failed node leaves no live node outside any
  // stripe, so every task exhausts its retries on capacity.
  StoreParams p;
  p.node_count = 4;
  p.drives_per_node = 2;
  p.drive_capacity = kilobytes(64.0);
  p.redundancy_set_size = 4;
  p.fault_tolerance = 1;
  p.chunk_size = kilobytes(1.0);
  ObjectStore store = populated_store(p, 6, 5000, 0xCAFE);
  store.fail_node(1);
  const std::size_t degraded = store.degraded_stripes().size();
  ASSERT_GT(degraded, 0u);

  RepairOptions options;
  options.max_retries = 2;
  const RepairReport report = run_repair(store, FaultSchedule{}, options);
  EXPECT_EQ(report.stripes_failed, degraded);
  EXPECT_EQ(report.retries,
            static_cast<std::uint64_t>(options.max_retries) * degraded);
  for (const RepairOutcome& outcome : report.outcomes) {
    ASSERT_FALSE(outcome.result.has_value());
    EXPECT_EQ(outcome.result.error().code, ErrorCode::kCapacityExhausted);
  }
  // The data itself is still readable (t-tolerant degraded reads).
  for (const brick::StripeRef& ref : store.degraded_stripes()) {
    EXPECT_TRUE(store.try_reconstruct_stripe(ref).has_value());
  }
}

// --- mid-rebuild fault-injection matrix -------------------------------

TEST(RepairFaults, SurvivorSourceNodeDiesMidRun) {
  ObjectStore store = populated_store(small_params(), 20, 9000, 0x5EED);
  store.fail_node(0);
  // Node 1 sources survivor shards for many of node 0's stripes; kill it
  // after three tasks have committed. t = 2, so everything stays
  // repairable — the engine must re-plan and finish.
  const FaultSchedule schedule = parse_ok("after:3 node:1");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_GT(report.replans, 0u);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
}

TEST(RepairFaults, RepairTargetNodeDiesMidRun) {
  // Dry run to learn which node receives the first repaired shard, then
  // replay on an identical store with a schedule that kills that target
  // right after the first commit — re-losing the repaired shard.
  const auto build = [] {
    ObjectStore store = populated_store(small_params(), 20, 9000, 0x7A67);
    store.fail_node(5);
    return store;
  };
  ObjectStore probe = build();
  const RepairReport dry = run_repair(probe);
  ASSERT_TRUE(dry.fully_successful());
  ASSERT_FALSE(dry.outcomes.empty());
  ASSERT_TRUE(dry.outcomes[0].result.has_value());
  const int target =
      dry.outcomes[0].result.value().shards.at(0).location.node;

  ObjectStore store = build();
  FaultSchedule schedule;
  FaultEvent event;
  event.trigger = TriggerKind::kAfterTask;
  event.index = 1;
  event.kind = FaultKind::kNode;
  event.node = target;
  schedule.events.push_back(event);
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
  // The re-lost stripe was repaired twice: two success outcomes.
  const brick::StripeRef first = dry.outcomes[0].stripe;
  std::size_t attempts = 0;
  for (const RepairOutcome& outcome : report.outcomes) {
    if (outcome.stripe == first) ++attempts;
  }
  EXPECT_EQ(attempts, 2u);
}

TEST(RepairFaults, SecondFailureExceedingToleranceMidRun) {
  StoreParams p = small_params();
  p.fault_tolerance = 1;
  p.redundancy_set_size = 5;
  ObjectStore store = populated_store(p, 20, 9000, 0xF00D);
  store.fail_node(0);
  // t = 1: a second node death mid-repair pushes the not-yet-repaired
  // stripes shared with node 0 beyond tolerance.
  const FaultSchedule schedule = parse_ok("after:2 node:1");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});  // must not throw
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_GT(report.stripes_failed, 0u);
  for (const RepairOutcome& outcome : report.outcomes) {
    if (!outcome.result.has_value()) {
      EXPECT_EQ(outcome.result.error().code, ErrorCode::kDataLoss);
    }
  }
  // Everything still repairable was repaired.
  for (const brick::StripeRef& ref : store.degraded_stripes()) {
    EXPECT_GT(store.stripe_status(ref).missing(), p.fault_tolerance);
  }
}

TEST(RepairFaults, TimeTriggeredFaultFiresOnSimulatedClock) {
  ObjectStore store = populated_store(small_params(), 20, 9000, 0x71ED);
  store.fail_node(3);
  ObjectStore reference = populated_store(small_params(), 20, 9000, 0x71ED);
  reference.fail_node(3);
  const double full_duration = run_repair(reference).duration_seconds;
  ASSERT_GT(full_duration, 0.0);

  FaultSchedule schedule =
      parse_ok("time:" + std::to_string(full_duration / 2.0) + " node:7");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_GE(report.duration_seconds, full_duration / 2.0);
  EXPECT_TRUE(report.fully_successful());  // t = 2 absorbs the second hit
  EXPECT_TRUE(store.fully_redundant());
}

TEST(RepairFaults, UnreachedEventsFireAtTheFinalBarrier) {
  ObjectStore store = populated_store(small_params(), 10, 6000, 0x0DD);
  store.fail_node(0);
  // Task index far beyond the plan: the event must still fire (final
  // barrier), degrade fresh stripes, and those must then be repaired too.
  const FaultSchedule schedule = parse_ok("before:1000000 node:6");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
  EXPECT_FALSE(store.node(6).alive());
}

TEST(RepairFaults, OutOfRangeAndRepeatFaultsAreNoOps) {
  ObjectStore store = populated_store(small_params(), 10, 6000, 0xABBA);
  store.fail_node(2);
  // Replayed ids a smaller store can't host, plus a repeat of an already
  // failed node: all no-ops, none counted as injected.
  const FaultSchedule schedule =
      parse_ok("before:0 node:99; before:0 drive:4.77; after:1 node:2");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  EXPECT_EQ(report.injected_faults, 0u);
  EXPECT_TRUE(report.fully_successful());
  EXPECT_TRUE(store.fully_redundant());
}

// --- jobs-invariance ---------------------------------------------------

TEST(RepairDeterminism, ByteIdenticalStateAndReportAcrossJobs) {
  const std::vector<std::string> schedules = {
      "",
      "before:0 node:1",
      "after:3 node:7",
      "after:1 drive:2.1; after:5 node:9",
      "time:0.02 node:6; before:8 drive:0.0",
      "after:2 node:1; after:4 node:3",  // second fault beyond t on some
  };
  for (const std::string& text : schedules) {
    const FaultSchedule schedule = parse_ok(text);
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::string> reports;
    for (const int jobs : {1, 8}) {
      ObjectStore store = populated_store(small_params(), 25, 9000, 0x10B5);
      store.fail_node(4);
      RepairOptions options;
      options.jobs = jobs;
      const RepairReport report = run_repair(store, schedule, options);
      fingerprints.push_back(store.content_fingerprint());
      reports.push_back(render_repair_report(report));
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << "schedule: " << text;
    EXPECT_EQ(reports[0], reports[1]) << "schedule: " << text;
  }
}

TEST(RepairDeterminism, RepeatedRunsAreBitStable) {
  const FaultSchedule schedule = parse_ok("after:2 node:8; time:0.05 node:2");
  std::vector<std::string> reports;
  for (int repeat = 0; repeat < 2; ++repeat) {
    ObjectStore store = populated_store(small_params(), 25, 9000, 0x9999);
    store.fail_node(10);
    RepairOptions options;
    options.jobs = 4;
    reports.push_back(render_repair_report(
        run_repair(store, schedule, options)));
  }
  EXPECT_EQ(reports[0], reports[1]);
}

/// FNV-1a over a string: pins a report's exact bytes without a golden file.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(RepairDeterminism, GoldenFingerprintsAndReport) {
  // Recorded from the byte-at-a-time GF(256) arithmetic that decoded
  // every shard of a stripe; the region kernel and the lost-only decode
  // must reproduce the store and the report exactly, at any --jobs.
  StoreParams params = small_params();
  params.drive_capacity = kilobytes(1024.0);
  const FaultSchedule schedule = parse_ok("after:100 node:5");
  for (const int jobs : {1, 4}) {
    ObjectStore store(params);
    Xoshiro256 rng(42);
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> bytes(9000);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      (void)store.write(bytes);
    }
    EXPECT_EQ(store.content_fingerprint(), 0x599afee88d5093e1ULL);
    store.fail_node(0);
    RepairOptions options;
    options.jobs = jobs;
    const std::string report =
        render_repair_report(run_repair(store, schedule, options));
    EXPECT_EQ(store.content_fingerprint(), 0x1f19ba9431544afbULL) << jobs;
    EXPECT_EQ(report.size(), 29160u) << jobs;
    EXPECT_EQ(fnv1a(report), 0x87ead484fab6c61dULL) << jobs;
  }
}

// --- observability -----------------------------------------------------

TEST(RepairProbes, CountersMatchReport) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  ObjectStore store = populated_store(small_params(), 15, 8000, 0x0B5);
  store.fail_node(1);
  const FaultSchedule schedule = parse_ok("after:2 node:6");
  const RepairReport report =
      run_repair(store, schedule, RepairOptions{});
  registry.set_enabled(false);

  std::map<std::string, std::uint64_t> counters;
  for (const auto& row : registry.snapshot().counters) {
    counters[row.name] = row.value;
  }
  registry.reset();
  EXPECT_EQ(counters[obs::probe::kRepairShardsRepaired],
            report.shards_repaired);
  EXPECT_EQ(counters[obs::probe::kRepairInjectedFaults],
            report.injected_faults);
  EXPECT_EQ(counters[obs::probe::kRepairReplans], report.replans);
  EXPECT_EQ(counters[obs::probe::kRepairRetries], report.retries);
  EXPECT_EQ(counters[obs::probe::kRepairStripesFailed],
            report.stripes_failed);
}

TEST(RepairProbes, DegradedReadsAreCounted) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  ObjectStore store = populated_store(small_params(), 5, 8000, 0xDEC0);
  const ObjectId first = 1;
  store.fail_node(0);
  (void)store.read(first);
  registry.set_enabled(false);
  std::uint64_t degraded = 0;
  for (const auto& row : registry.snapshot().counters) {
    if (row.name == obs::probe::kBrickDegradedReads) degraded = row.value;
  }
  registry.reset();
  EXPECT_GT(degraded, 0u);
}

// --- analytic cross-validation ----------------------------------------

TEST(RepairAnalytic, MeasuredFlowsMatchRebuildModel) {
  // ~45 stripes per surviving node: enough for the rotating layout's
  // evenness to show through in per-node flows.
  StoreParams p = small_params();
  p.drive_capacity = megabytes(1.0);
  ObjectStore store = populated_store(p, 100, 9000, 0xF10F);
  store.fail_node(0);
  const std::size_t lost = store.degraded_stripes().size();
  ASSERT_GT(lost, 100u);

  RepairOptions options;
  options.timing.bytes_per_second = 64.0 * 1024.0;
  const RepairReport report = run_repair(store, FaultSchedule{}, options);
  ASSERT_TRUE(report.fully_successful());

  const double chunk = p.chunk_size.value();
  const double node_data = static_cast<double>(lost) * chunk;
  const int survivors = p.node_count - 1;
  const int k = p.redundancy_set_size - p.fault_tolerance;

  rebuild::RebuildParams model_params;
  model_params.node_set_size = p.node_count;
  model_params.redundancy_set_size = p.redundancy_set_size;
  model_params.fault_tolerance = p.fault_tolerance;
  const rebuild::RebuildPlanner planner(model_params);
  const rebuild::DataFlows flows = planner.flows();

  // Totals are exact: k survivor chunks in and one rebuilt chunk out per
  // lost stripe, which is the flow model's interconnect accounting.
  double total_sourced = 0.0;
  double total_received = 0.0;
  for (const auto& [node, bytes] : report.sourced_bytes) {
    EXPECT_NE(node, 0);  // the dead node sources nothing
    total_sourced += bytes;
  }
  for (const auto& [node, bytes] : report.received_bytes) {
    EXPECT_NE(node, 0);
    total_received += bytes;
  }
  EXPECT_DOUBLE_EQ(total_received, node_data);
  EXPECT_DOUBLE_EQ(total_sourced, flows.interconnect_total * node_data);
  EXPECT_DOUBLE_EQ(report.bytes_reconstructed, node_data);

  // The model's per-node sourced share (R-t)/(N-1) is the mean over
  // survivors, and the measured mean matches it exactly. (The per-node
  // distribution is deliberately NOT asserted even: decode consumes the
  // first k available shards in shard-index order, so the rotating
  // layout systematically skips each stripe's last survivor — the
  // aggregate flow is the model's quantity, the split is layout policy.)
  EXPECT_NEAR(total_sourced / survivors / node_data, flows.sourced_per_node,
              1e-12);
  EXPECT_GE(static_cast<int>(report.sourced_bytes.size()), k);
  EXPECT_LE(static_cast<int>(report.sourced_bytes.size()), survivors);

  // Received bytes ARE spread evenly: the capacity-reservation ledger
  // targets the most-free node, which balances within a chunk or two of
  // the model's 1/(N-1) share.
  for (int node = 1; node < p.node_count; ++node) {
    const auto received = report.received_bytes.find(node);
    ASSERT_NE(received, report.received_bytes.end()) << node;
    EXPECT_NEAR(received->second / node_data, flows.rebuilt_per_node,
                0.35 * flows.rebuilt_per_node)
        << node;
  }

  // The simulated rebuild duration is exactly the moved bytes over the
  // configured bandwidth: (k + 1) chunks per lost stripe.
  const double moved =
      static_cast<double>(lost) * (static_cast<double>(k) + 1.0) * chunk;
  EXPECT_NEAR(report.duration_seconds,
              moved / options.timing.bytes_per_second, 1e-9);
}

TEST(RepairAnalytic, DegradedReadAmplificationMatchesModel) {
  StoreParams p = small_params();
  p.drive_capacity = megabytes(1.0);
  ObjectStore store(p);
  Xoshiro256 rng(0xA3D);
  std::vector<ObjectId> objects;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 60; ++i) {
    const std::size_t size = 9000;
    objects.push_back(store.write(random_bytes(size, rng)));
    sizes.push_back(size);
  }
  store.fail_node(0);

  rebuild::DegradedParams model_params;
  model_params.rebuild.node_set_size = p.node_count;
  model_params.rebuild.redundancy_set_size = p.redundancy_set_size;
  model_params.rebuild.fault_tolerance = p.fault_tolerance;
  const double predicted =
      rebuild::DegradedModel(model_params).impact().read_amplification;

  workload::WorkloadParams wl;
  wl.operations = 4000;
  wl.read_bytes = static_cast<std::size_t>(p.chunk_size.value());
  const workload::WorkloadResult degraded =
      workload::run_read_workload(store, objects, sizes, wl);
  EXPECT_GT(degraded.degraded_reads, 0u);
  EXPECT_NEAR(degraded.read_amplification, predicted, 0.10 * predicted);

  // After a full repair the amplification returns to exactly 1.
  ASSERT_TRUE(run_repair(store).fully_successful());
  const workload::WorkloadResult repaired =
      workload::run_read_workload(store, objects, sizes, wl);
  EXPECT_EQ(repaired.degraded_reads, 0u);
  EXPECT_DOUBLE_EQ(repaired.read_amplification, 1.0);
}

TEST(RepairAnalytic, CompressedScheduleLossFrequencyMatchesMttdl) {
  // N = 6, R = 4, t = 1: every pair of nodes shares stripes, so any two
  // failures with overlapping repair windows lose data — the
  // no-internal-RAID FT1 absorption path. Poisson node failures are
  // compressed onto the simulated clock. N > R + 1 keeps repair possible
  // through two (spread-out) node deaths, matching the chain's
  // repair-restores-health assumption for every non-loss path the
  // mission can realistically take.
  StoreParams p;
  p.node_count = 6;
  p.drives_per_node = 2;
  p.drive_capacity = kilobytes(64.0);
  p.redundancy_set_size = 4;
  p.fault_tolerance = 1;
  p.chunk_size = Bytes(256.0);

  const int objects = 40;
  const std::size_t object_size = 3 * 256;  // one stripe per object
  const double lambda = 0.02;               // per node, per sim second
  const double mission = 8.0;

  // Rebuild window: 4/6 of stripes touch a given node, each moving
  // k + 1 = 4 chunks.
  const double lost_stripes = objects * 4.0 / 6.0;
  const double window = 5.0;
  RepairOptions options;
  options.timing.bytes_per_second = lost_stripes * 4.0 * 256.0 / window;

  const int trials = 300;
  int losses = 0;
  Xoshiro256 rng(0x377D1);
  for (int trial = 0; trial < trials; ++trial) {
    ObjectStore store(p);
    Xoshiro256 data_rng(0xDA7A);
    for (int i = 0; i < objects; ++i) {
      (void)store.write(random_bytes(object_size, data_rng));
    }
    // Pooled Poisson process at rate N*lambda with a uniform node pick;
    // hits on already-dead nodes are no-ops, which thins the stream to
    // exactly the chain's (N-j)*lambda.
    FaultSchedule schedule;
    double t = rng.exponential(p.node_count * lambda);
    while (t < mission) {
      FaultEvent event;
      event.trigger = TriggerKind::kAtTime;
      event.time_seconds = t;
      event.kind = FaultKind::kNode;
      event.node = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(p.node_count)));
      schedule.events.push_back(event);
      t += rng.exponential(p.node_count * lambda);
    }
    const RepairReport report = run_repair(store, schedule, options);
    bool lost = false;
    for (const RepairOutcome& outcome : report.outcomes) {
      if (!outcome.result.has_value() &&
          outcome.result.error().code == ErrorCode::kDataLoss) {
        lost = true;
      }
    }
    losses += lost ? 1 : 0;
  }
  const double observed = static_cast<double>(losses) / trials;

  models::NoInternalRaidParams model;
  model.node_set_size = p.node_count;
  model.redundancy_set_size = p.redundancy_set_size;
  model.fault_tolerance = 1;
  model.drives_per_node = p.drives_per_node;
  model.node_failure = PerHour(lambda);  // sim seconds play the hours role
  model.drive_failure = PerHour(1e-12);
  // The engine repairs in a deterministic window d; the chain repairs
  // exponentially. Use the rate whose exponential repair has the same
  // per-incident loss probability as the deterministic window:
  //   (N-1)L / ((N-1)L + mu) = 1 - exp(-(N-1)L d)
  // => mu = (N-1)L / expm1((N-1)L d).
  const double second_hit_rate = (p.node_count - 1) * lambda;
  model.node_rebuild =
      PerHour(second_hit_rate / std::expm1(second_hit_rate * window));
  model.drive_rebuild = PerHour(1e6);
  model.her_per_byte = 1e-30;
  // Exact transient absorption probability (uniformization) rather than
  // the asymptotic 1 - exp(-T/MTTDL): with a mission only a few repair
  // windows long, the "needs two failures" start-up transient matters.
  const models::NoInternalRaidModel analytic(model);
  const ctmc::Chain chain = analytic.chain();
  const ctmc::TransientSolver solver(chain);
  const double predicted =
      1.0 - solver.survival(mission, models::NoInternalRaidModel::root_state());

  ASSERT_GT(predicted, 0.05);
  ASSERT_LT(predicted, 0.95);
  // Remaining modeling gap: partial repair shaves the tail of the
  // vulnerability window, a repaired store keeps its dead node (lower
  // subsequent failure pressure than the chain's fully-restored state),
  // and the binomial sampling error is ~0.02 at 300 trials.
  EXPECT_NEAR(observed, predicted, 0.30 * predicted)
      << "observed " << observed << " predicted " << predicted;
}

}  // namespace
}  // namespace nsrel::repair
