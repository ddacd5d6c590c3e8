// repair_online: rebuild a degraded brick store while it serves reads.
// Set-up writes the store (Reed-Solomon encode on every stripe) and
// fails one node. One job copies that store and runs repair::run_repair
// to full redundancy under a fault schedule of time-paced barriers (each
// serving Zipf-popular foreground reads through
// ObjectStore::try_read_range) and one mid-run node fault that keeps
// every stripe within the code's fault tolerance. The seed draws the
// object bytes and the foreground reads; the failed nodes and the
// fault's place are fixed, so every seed rebuilds the same stripes.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "brick/object_store.hpp"
#include "erasure/reed_solomon.hpp"
#include "obs/probe_names.hpp"
#include "repair/fault_schedule.hpp"
#include "repair/repair.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perf_e2e {

namespace brick = nsrel::brick;
namespace repair = nsrel::repair;

namespace {

constexpr int kObjects = 600;
constexpr std::size_t kObjectBytes = 9000;
constexpr std::size_t kReadBytes = 1024;  // one chunk
constexpr int kReadsPerBarrier = 48;
constexpr double kZipfExponent = 0.9;
constexpr int kBarriers = 16;  // time-paced, over the simulated rebuild

brick::StoreParams store_params() {
  brick::StoreParams p;
  p.node_count = 12;
  p.drives_per_node = 3;
  p.drive_capacity = nsrel::kilobytes(1024.0);
  p.redundancy_set_size = 6;
  p.fault_tolerance = 2;
  p.chunk_size = nsrel::kilobytes(1.0);
  return p;
}

struct Fixture {
  brick::ObjectStore store{store_params()};
  std::vector<brick::ObjectId> ids;
  std::vector<std::vector<std::uint8_t>> bytes;
  std::uint64_t pristine_fingerprint = 0;
};

/// Writes every object (erasure encode) and fails `first_node`.
Fixture make_fixture(std::uint64_t seed, int first_node) {
  Fixture f;
  nsrel::Xoshiro256 rng(seed);
  f.bytes.resize(kObjects);
  for (std::vector<std::uint8_t>& object : f.bytes) {
    object.resize(kObjectBytes);
    for (std::uint8_t& b : object) b = static_cast<std::uint8_t>(rng());
  }
  for (const auto& object : f.bytes) f.ids.push_back(f.store.write(object));
  f.pristine_fingerprint = f.store.content_fingerprint();
  f.store.fail_node(first_node);
  return f;
}

/// Foreground reads served at the barriers of one rebuild.
struct Reads {
  std::vector<double> healthy_us;
  std::vector<double> degraded_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t chunk_reads = 0;
  double logical_bytes = 0.0;
  int barriers = 0;
  double barrier_s = 0.0;
};

}  // namespace

RunResult run_repair_online(const RunConfig& config) {
  RunResult result;
  const int nodes = store_params().node_count;
  constexpr int first_node = 0;
  constexpr int second_node = 5;
  const std::uint64_t content_seed = nsrel::stream_seed(config.seed, 0);

  // Set-up, repeated: write the store and fail the first node.
  std::vector<double> setup_s;
  Fixture fixture;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    fixture = make_fixture(content_seed, first_node);
    setup_s.push_back(now_s() - t0);
  }
  const repair::RepairPlan initial_plan = repair::plan_repair(fixture.store);
  const std::size_t tasks = initial_plan.tasks.size();

  // The simulated rebuild lasts about (lost bytes) / bandwidth; pace the
  // barriers evenly over it and put the second fault 40% into the
  // initial plan (a fixed share, so every seed re-plans alike).
  const repair::RepairTiming timing;
  const double sim_seconds =
      static_cast<double>(initial_plan.shard_count()) *
      store_params().chunk_size.value() * (store_params().redundancy_set_size -
                                           store_params().fault_tolerance) /
      timing.bytes_per_second;
  const std::uint64_t fault_task = 2 * tasks / 5;
  repair::FaultSchedule schedule;
  for (int b = 1; b <= kBarriers; ++b) {
    repair::FaultEvent pace;
    pace.trigger = repair::TriggerKind::kAtTime;
    pace.time_seconds = sim_seconds * b / (kBarriers + 1);
    pace.node = nodes + 99;  // out of range: a barrier, not a fault
    schedule.events.push_back(pace);
  }
  repair::FaultEvent fault;
  fault.trigger = repair::TriggerKind::kAfterTask;
  fault.index = fault_task;
  fault.node = second_node;
  schedule.events.push_back(fault);

  const nsrel::workload::ZipfSampler popularity(kObjects, kZipfExponent);
  const auto chunk =
      static_cast<std::size_t>(store_params().chunk_size.value());
  const std::size_t slots = (kObjectBytes - kReadBytes) / chunk + 1;

  // One rebuild. Returns the run_repair wall time; fills `reads`.
  const auto rebuild = [&](int job, int lanes, Reads& reads,
                           repair::RepairReport& report,
                           std::uint64_t& fingerprint) {
    brick::ObjectStore store = fixture.store;
    nsrel::Xoshiro256 read_rng(nsrel::stream_seed(config.seed, 1000 + job));
    repair::RepairOptions options;
    options.jobs = lanes;
    options.timing = timing;
    options.on_barrier = [&](brick::ObjectStore& s, double) {
      const double b0 = now_s();
      ++reads.barriers;
      s.reset_io_stats();
      for (int i = 0; i < kReadsPerBarrier; ++i) {
        const std::size_t pick = popularity.sample(read_rng);
        const std::size_t offset = chunk * read_rng.below(slots);
        const std::uint64_t decodes = s.io_stats().decode_operations;
        const double t0 = now_s();
        const auto got =
            s.try_read_range(fixture.ids[pick], offset, kReadBytes);
        const double us = 1e6 * (now_s() - t0);
        ++reads.attempted;
        const auto& want = fixture.bytes[pick];
        if (!got.has_value() ||
            !std::equal(got.value().begin(), got.value().end(),
                        want.begin() + static_cast<std::ptrdiff_t>(offset))) {
          ++reads.failed;
        }
        (s.io_stats().decode_operations > decodes ? reads.degraded_us
                                                  : reads.healthy_us)
            .push_back(us);
      }
      reads.chunk_reads += s.io_stats().chunk_reads;
      reads.logical_bytes += s.io_stats().logical_bytes;
      reads.barrier_s += now_s() - b0;
    };
    const double t0 = now_s();
    report = repair::run_repair(store, schedule, options);
    const double wall = now_s() - t0;
    fingerprint = store.content_fingerprint();
    // Full redundancy and every object intact, checked after the clock.
    bool intact = store.fully_redundant();
    for (int o = 0; o < kObjects && intact; ++o) {
      const auto read =
          store.try_read(fixture.ids[static_cast<std::size_t>(o)]);
      intact = read.has_value() &&
               read.value() == fixture.bytes[static_cast<std::size_t>(o)];
    }
    result.check(intact, "store not fully redundant with intact objects "
                         "after repair");
    return wall;
  };

  // Reference rebuild at 1 lane: the report and final store every job
  // must reproduce.
  Reads reference_reads;
  repair::RepairReport reference_report;
  std::uint64_t reference_fingerprint = 0;
  (void)rebuild(-1, 1, reference_reads, reference_report,
                reference_fingerprint);
  const std::string reference_text =
      repair::render_repair_report(reference_report);
  result.check(reference_report.stripes_failed == 0,
               "stripes failed: " +
                   std::to_string(reference_report.stripes_failed) +
                   " (expected 0: two node faults with t = 2)");
  result.check(reference_report.injected_faults == 1,
               "the mid-run fault did not fire");

  Reads all;
  std::vector<double> self_s;
  std::vector<double> barrier_s;
  std::vector<double> barriers;
  repair::RepairReport last_report;
  const auto job = [&](int j) {
    Reads reads;
    repair::RepairReport report;
    std::uint64_t fingerprint = 0;
    const double wall = rebuild(j, config.threads, reads, report, fingerprint);
    result.attempted += report.stripes_attempted + reads.attempted;
    result.failed += report.stripes_failed + reads.failed;
    if (fingerprint != reference_fingerprint ||
        repair::render_repair_report(report) != reference_text) {
      ++result.failed;
      result.check(false, "rebuild at " + std::to_string(config.threads) +
                              " lanes differs from the 1-lane reference");
    }
    if (j < 0) return wall;  // warm-up: checked, not counted
    all.healthy_us.insert(all.healthy_us.end(), reads.healthy_us.begin(),
                          reads.healthy_us.end());
    all.degraded_us.insert(all.degraded_us.end(), reads.degraded_us.begin(),
                           reads.degraded_us.end());
    all.chunk_reads += reads.chunk_reads;
    all.logical_bytes += reads.logical_bytes;
    self_s.push_back(wall - reads.barrier_s);
    barrier_s.push_back(reads.barrier_s);
    barriers.push_back(reads.barriers);
    last_report = report;
    return wall;
  };

  result.note("inputs: " + std::to_string(kObjects) + " objects of " +
              std::to_string(kObjectBytes) + " B on 12 nodes x 3 drives, "
              "R=6 t=2, 1 KiB chunks; node " + std::to_string(first_node) +
              " failed at set-up, node " + std::to_string(second_node) +
              " after task " + std::to_string(fault_task) + " of " +
              std::to_string(tasks) + "; " + std::to_string(kBarriers) +
              " paced barriers x " + std::to_string(kReadsPerBarrier) +
              " Zipf(" + num(kZipfExponent) + ") reads of " +
              std::to_string(kReadBytes) + " B");
  result.note(std::string("fingerprint after repair ") +
              (reference_fingerprint == fixture.pristine_fingerprint
                   ? "equals"
                   : "differs from (shards moved to new nodes)") +
              " the pristine store's; objects compared byte for byte instead");

  std::vector<double> plain;
  std::vector<double> traced;
  TraceCapture capture;
  if (!config.trace) {
    plain = run_self_timed_loop(config.seconds, 20, job);
    record_end_to_end(result, plain, setup_s,
                      "one rebuild from fault to full redundancy");
  } else {
    plain = run_self_timed_loop(config.seconds / 2, 20, job);
    self_s.clear();
    barrier_s.clear();
    barriers.clear();
    all = Reads{};
    begin_trace_capture();
    traced = run_self_timed_loop(config.seconds / 2, 20, job, false);
    capture = end_trace_capture(result, config.threads, sum(traced));
  }


  std::vector<double> reads_us = all.healthy_us;
  reads_us.insert(reads_us.end(), all.degraded_us.begin(),
                  all.degraded_us.end());
  const Tail read_tail = tail(reads_us);
  const double degraded_frac = static_cast<double>(all.degraded_us.size()) /
                               static_cast<double>(reads_us.size());
  result.note("fg_read_p50_us = " + num(median(reads_us)) +
              " us, fg_read_tail_us = " + num(read_tail.value) + " us (p" +
              num(read_tail.percentile) + " of " +
              std::to_string(read_tail.samples) + " reads); degraded-read "
              "share " + num(degraded_frac));
  if (!config.trace) return result;

  auto& m = result.metrics;
  const double jobs = static_cast<double>(traced.size());
  const double task_s = capture.spans.total_ms("repair_task") / 1e3;
  m["repair.run_self_ms"] = 1e3 * sum(self_s) / jobs;
  m["repair.barrier_ms"] = 1e3 * sum(barrier_s) / jobs;
  m["repair.task_ms"] = 1e3 * task_s / jobs;
  m["repair.shards_repaired"] =
      static_cast<double>(last_report.shards_repaired);
  m["repair.replans"] = static_cast<double>(last_report.replans);
  m["repair.retries"] = static_cast<double>(last_report.retries);
  m["repair.bytes_reconstructed"] = last_report.bytes_reconstructed;
  m["repair.barriers"] = median(barriers);
  m["workload.fg_read_p50_us"] = median(reads_us);
  m["workload.fg_read_tail_us"] = read_tail.value;
  m["workload.fg_reads"] = static_cast<double>(reads_us.size()) / jobs;
  if (!all.healthy_us.empty()) {
    m["brick.read_range_healthy_us"] = median(all.healthy_us);
  }
  if (!all.degraded_us.empty()) {
    m["brick.read_range_degraded_us"] = median(all.degraded_us);
  }
  m["brick.degraded_read_frac"] = degraded_frac;
  m["brick.read_amp"] = static_cast<double>(all.chunk_reads) /
                        (all.logical_bytes / static_cast<double>(chunk));
  m["brick.write_ms"] = 1e3 * median(setup_s);
  // Planner, encode and decode, timed directly.
  {
    std::vector<double> plan_s;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      const repair::RepairPlan plan = repair::plan_repair(fixture.store);
      plan_s.push_back(now_s() - t0);
      result.check(plan.tasks.size() == tasks, "plan_repair is not stable");
    }
    m["repair.plan_ms"] = 1e3 * median(plan_s);

    const brick::StoreParams p = store_params();
    const nsrel::erasure::ReedSolomonCode code(
        p.redundancy_set_size - p.fault_tolerance, p.fault_tolerance);
    std::vector<nsrel::erasure::Shard> data(
        static_cast<std::size_t>(code.data_shards()),
        nsrel::erasure::Shard(chunk));
    nsrel::Xoshiro256 bytes_rng(config.seed);
    for (auto& shard : data) {
      for (auto& b : shard) b = static_cast<std::uint8_t>(bytes_rng());
    }
    constexpr int kCalls = 2000;
    double t0 = now_s();
    std::vector<nsrel::erasure::Shard> parity;
    for (int i = 0; i < kCalls; ++i) parity = code.encode(data);
    m["erasure.encode_us"] = 1e6 * (now_s() - t0) / kCalls;
    std::vector<nsrel::erasure::Shard> shards = data;
    shards.insert(shards.end(), parity.begin(), parity.end());
    std::vector<bool> present(shards.size(), true);
    present[0] = false;  // one lost data shard, as after a node failure
    std::vector<nsrel::erasure::Shard> rebuilt;
    t0 = now_s();
    for (int i = 0; i < kCalls; ++i) {
      rebuilt = code.reconstruct(shards, present);
    }
    m["erasure.decode_us"] = 1e6 * (now_s() - t0) / kCalls;
    result.check(rebuilt.front() == data.front(),
                 "decode returned wrong bytes");
  }

  // Layer times: the foreground reads at the barriers and the repair
  // engine's own repair_task spans. run_self_ms is a residual, not a
  // layer, so it stays out of the sum.
  record_trace(result, plain, traced, {sum(barrier_s), task_s});
  return result;
}

}  // namespace perf_e2e
