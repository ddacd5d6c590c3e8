// Tests for the parallel Monte-Carlo engine: bit-identical deterministic
// replay across thread counts, Welford/Chan chunk-merge algebra, adaptive
// stopping, and the underlying thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/parallel.hpp"
#include "sim/storage_simulator.hpp"
#include "sim/weibull_simulator.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nsrel::sim {
namespace {

// Accelerated parameters (as in test_sim.cpp) keep trajectories short.
models::NoInternalRaidParams accelerated_nir(int fault_tolerance) {
  models::NoInternalRaidParams p;
  p.node_set_size = 8;
  p.redundancy_set_size = 4;
  p.fault_tolerance = fault_tolerance;
  p.drives_per_node = 3;
  p.node_failure = PerHour(0.002);
  p.drive_failure = PerHour(0.003);
  p.node_rebuild = PerHour(1.0);
  p.drive_rebuild = PerHour(3.0);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

models::InternalRaidParams accelerated_ir(int fault_tolerance) {
  models::InternalRaidParams p;
  p.node_set_size = 8;
  p.redundancy_set_size = 4;
  p.fault_tolerance = fault_tolerance;
  p.node_failure = PerHour(0.004);
  p.node_rebuild = PerHour(1.0);
  p.array_failure = PerHour(0.001);
  p.sector_error = PerHour(0.0005);
  return p;
}

ParallelOptions with_jobs(int jobs) {
  ParallelOptions options;
  options.jobs = jobs;
  options.chunk_trials = 64;
  return options;
}

void expect_bit_identical(const MttdlEstimate& a, const MttdlEstimate& b) {
  EXPECT_EQ(a.trials, b.trials);
  // EXPECT_DOUBLE_EQ would allow 4 ulps; the engine promises exact
  // equality, so compare with ==.
  EXPECT_EQ(a.mean_hours, b.mean_hours);
  EXPECT_EQ(a.stddev_hours, b.stddev_hours);
  EXPECT_EQ(a.stderr_hours, b.stderr_hours);
  EXPECT_EQ(a.ci95_low_hours, b.ci95_low_hours);
  EXPECT_EQ(a.ci95_high_hours, b.ci95_high_hours);
}

// --- Deterministic replay: same seed => identical estimate at 1/2/8 jobs.

TEST(DeterministicReplay, NirStorageSimulatorAcrossJobs) {
  const NirStorageSimulator simulator(accelerated_nir(2), 42);
  const MttdlEstimate serial = simulator.estimate(500, with_jobs(1));
  expect_bit_identical(serial, simulator.estimate(500, with_jobs(2)));
  expect_bit_identical(serial, simulator.estimate(500, with_jobs(8)));
  EXPECT_EQ(serial.trials, 500);
}

TEST(DeterministicReplay, IrStorageSimulatorAcrossJobs) {
  const IrStorageSimulator simulator(accelerated_ir(2), 42);
  const MttdlEstimate serial = simulator.estimate(500, with_jobs(1));
  expect_bit_identical(serial, simulator.estimate(500, with_jobs(2)));
  expect_bit_identical(serial, simulator.estimate(500, with_jobs(8)));
}

TEST(DeterministicReplay, ChainSimulatorAcrossJobs) {
  const models::NoInternalRaidModel model(accelerated_nir(2));
  const auto chain = model.chain();
  const ChainSimulator simulator(chain, 42);
  const auto root = models::NoInternalRaidModel::root_state();
  const MttdlEstimate serial = simulator.estimate(500, root, with_jobs(1));
  expect_bit_identical(serial, simulator.estimate(500, root, with_jobs(2)));
  expect_bit_identical(serial, simulator.estimate(500, root, with_jobs(8)));
}

TEST(DeterministicReplay, WeibullSimulatorAcrossJobs) {
  const WeibullStorageSimulator simulator(accelerated_nir(2), {1.4, 0.7}, 42);
  const MttdlEstimate serial = simulator.estimate(200, with_jobs(1));
  expect_bit_identical(serial, simulator.estimate(200, with_jobs(2)));
  expect_bit_identical(serial, simulator.estimate(200, with_jobs(8)));
}

TEST(DeterministicReplay, RaggedTailTrialsAcrossJobs) {
  // 500 trials over chunks of 64: seven full chunks plus a ragged 52.
  const NirStorageSimulator simulator(accelerated_nir(1), 7);
  ParallelOptions options = with_jobs(3);
  options.chunk_trials = 64;
  const MttdlEstimate a = simulator.estimate(500, options);
  options.jobs = 1;
  const MttdlEstimate b = simulator.estimate(500, options);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.trials, 500);
}

TEST(DeterministicReplay, DifferentSeedsDiffer) {
  const NirStorageSimulator a(accelerated_nir(2), 1);
  const NirStorageSimulator b(accelerated_nir(2), 2);
  EXPECT_NE(a.estimate(200, with_jobs(2)).mean_hours,
            b.estimate(200, with_jobs(2)).mean_hours);
}

TEST(DeterministicReplay, ChunkSizeIsPartOfTheResultIdentity) {
  // A different chunk layout is a different (equally valid) estimate —
  // document that determinism is per (seed, trials, chunk_trials).
  const NirStorageSimulator simulator(accelerated_nir(2), 42);
  ParallelOptions coarse = with_jobs(1);
  coarse.chunk_trials = 256;
  EXPECT_NE(simulator.estimate(512, with_jobs(1)).mean_hours,
            simulator.estimate(512, coarse).mean_hours);
}

// --- Chunk-merge algebra.

TEST(MomentAccumulator, MatchesDirectMoments) {
  Xoshiro256 rng(5);
  MomentAccumulator acc;
  double sum = 0.0, sum_squares = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(0.5);
    acc.add(x);
    sum += x;
    sum_squares += x * x;
  }
  const MttdlEstimate welford = make_estimate(acc);
  const MttdlEstimate raw = make_estimate(sum, sum_squares, n);
  EXPECT_EQ(welford.trials, raw.trials);
  EXPECT_NEAR(welford.mean_hours, raw.mean_hours,
              1e-12 * raw.mean_hours);
  EXPECT_NEAR(welford.stddev_hours, raw.stddev_hours,
              1e-10 * raw.stddev_hours);
}

TEST(MomentAccumulator, MergeIsAssociativeToRoundoff) {
  Xoshiro256 rng(6);
  MomentAccumulator a, b, c, all;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.exponential(1.0);
    (i < 100 ? a : i < 200 ? b : c).add(x);
    all.add(x);
  }
  const MomentAccumulator left =
      MomentAccumulator::merge(MomentAccumulator::merge(a, b), c);
  const MomentAccumulator right =
      MomentAccumulator::merge(a, MomentAccumulator::merge(b, c));
  EXPECT_EQ(left.count, right.count);
  EXPECT_NEAR(left.mean, right.mean, 1e-12 * std::abs(all.mean));
  EXPECT_NEAR(left.m2, right.m2, 1e-10 * all.m2);
  // And both agree with the single-stream accumulation.
  EXPECT_EQ(left.count, all.count);
  EXPECT_NEAR(left.mean, all.mean, 1e-12 * std::abs(all.mean));
  EXPECT_NEAR(left.m2, all.m2, 1e-10 * all.m2);
}

TEST(MomentAccumulator, EmptyIsTheMergeIdentity) {
  MomentAccumulator a;
  a.add(3.0);
  a.add(5.0);
  const MomentAccumulator left = MomentAccumulator::merge({}, a);
  const MomentAccumulator right = MomentAccumulator::merge(a, {});
  EXPECT_EQ(left.count, a.count);
  EXPECT_EQ(left.mean, a.mean);
  EXPECT_EQ(left.m2, a.m2);
  EXPECT_EQ(right.count, a.count);
  EXPECT_EQ(right.mean, a.mean);
  EXPECT_EQ(right.m2, a.m2);
}

TEST(MomentAccumulator, PairwiseMergeMatchesFoldToRoundoff) {
  Xoshiro256 rng(7);
  std::vector<MomentAccumulator> parts(9);
  MomentAccumulator fold;
  for (auto& part : parts) {
    for (int i = 0; i < 50; ++i) {
      const double x = rng.uniform() * 10.0;
      part.add(x);
      fold.add(x);
    }
  }
  const MomentAccumulator merged = merge_pairwise(parts);
  EXPECT_EQ(merged.count, fold.count);
  EXPECT_NEAR(merged.mean, fold.mean, 1e-12 * fold.mean);
  EXPECT_NEAR(merged.m2, fold.m2, 1e-10 * fold.m2);
}

TEST(MomentAccumulator, EstimateRequiresTwoObservations) {
  MomentAccumulator one;
  one.add(1.0);
  EXPECT_THROW((void)make_estimate(one), ContractViolation);
}

// --- Adaptive stopping.

TEST(AdaptiveStopping, ReachesTheRequestedPrecision) {
  const NirStorageSimulator simulator(accelerated_nir(1), 11);
  ParallelOptions options = with_jobs(2);
  options.ci_target = 0.05;
  options.max_trials = 200000;
  const MttdlEstimate e = simulator.estimate(256, options);
  EXPECT_LE(e.relative_half_width(), 0.05);
  EXPECT_GE(e.trials, 256);
  EXPECT_LE(e.trials, options.max_trials + options.chunk_trials);
}

TEST(AdaptiveStopping, RunsMoreTrialsForTighterTargets) {
  const NirStorageSimulator simulator(accelerated_nir(1), 11);
  ParallelOptions loose = with_jobs(1);
  loose.ci_target = 0.20;
  loose.max_trials = 400000;
  ParallelOptions tight = loose;
  tight.ci_target = 0.04;
  const MttdlEstimate coarse = simulator.estimate(128, loose);
  const MttdlEstimate fine = simulator.estimate(128, tight);
  EXPECT_LT(coarse.trials, fine.trials);
  EXPECT_LE(fine.relative_half_width(), 0.04);
}

TEST(AdaptiveStopping, IsDeterministicAcrossJobs) {
  const IrStorageSimulator simulator(accelerated_ir(2), 13);
  ParallelOptions options = with_jobs(1);
  options.ci_target = 0.08;
  options.max_trials = 200000;
  const MttdlEstimate serial = simulator.estimate(256, options);
  options.jobs = 4;
  const MttdlEstimate parallel = simulator.estimate(256, options);
  expect_bit_identical(serial, parallel);
}

TEST(AdaptiveStopping, RespectsMaxTrials) {
  const NirStorageSimulator simulator(accelerated_nir(2), 17);
  ParallelOptions options = with_jobs(2);
  options.ci_target = 1e-6;  // unreachable
  options.max_trials = 1024;
  const MttdlEstimate e = simulator.estimate(256, options);
  EXPECT_EQ(e.trials, 1024);
  EXPECT_GT(e.relative_half_width(), 1e-6);
}

TEST(AdaptiveStopping, DisabledRunsExactlyTheRequestedTrials) {
  const NirStorageSimulator simulator(accelerated_nir(2), 19);
  const MttdlEstimate e = simulator.estimate(300, with_jobs(2));
  EXPECT_EQ(e.trials, 300);
}

// --- Engine contracts.

TEST(ParallelEngine, RejectsInvalidOptions) {
  const auto one = [](Xoshiro256& rng) { return rng.uniform(); };
  EXPECT_THROW((void)run_trials(one, 1, 0), ContractViolation);
  ParallelOptions bad_chunk;
  bad_chunk.chunk_trials = 0;
  EXPECT_THROW((void)run_trials(one, 10, 0, bad_chunk), ContractViolation);
  ParallelOptions bad_jobs;
  bad_jobs.jobs = -1;
  EXPECT_THROW((void)run_trials(one, 10, 0, bad_jobs), ContractViolation);
  ParallelOptions low_cap;
  low_cap.ci_target = 0.05;
  low_cap.max_trials = 5;
  EXPECT_THROW((void)run_trials(one, 10, 0, low_cap), ContractViolation);
}

TEST(ParallelEngine, CheckNamesTheOffendingOption) {
  EXPECT_FALSE(check(ParallelOptions{}, 2).has_value());
  const auto rejects = [](const ParallelOptions& options, int trials,
                          const std::string& name) {
    const std::optional<Error> bad = check(options, trials);
    ASSERT_TRUE(bad.has_value()) << name;
    EXPECT_EQ(bad->code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(bad->detail.rfind(name + " ", 0), 0u) << bad->detail;
  };
  rejects(ParallelOptions{}, 1, "trials");
  for (const double target : {-1.0, std::nan(""), HUGE_VAL}) {
    ParallelOptions options;
    options.ci_target = target;
    rejects(options, 10, "ci-target");
  }
  ParallelOptions chunk;
  chunk.chunk_trials = 0;
  rejects(chunk, 10, "chunk");
  ParallelOptions jobs;
  jobs.jobs = -1;
  rejects(jobs, 10, "jobs");
  ParallelOptions cap;
  cap.ci_target = 0.05;
  cap.max_trials = 5;
  rejects(cap, 10, "max-trials");
  cap.ci_target = 0.0;  // the cap only binds in adaptive mode
  EXPECT_FALSE(check(cap, 10).has_value());
}

TEST(ParallelEngine, JobsZeroUsesAllCoresAndStaysDeterministic) {
  const NirStorageSimulator simulator(accelerated_nir(2), 23);
  ParallelOptions all_cores = with_jobs(0);
  expect_bit_identical(simulator.estimate(256, with_jobs(1)),
                       simulator.estimate(256, all_cores));
}

TEST(ParallelEngine, UniformSamplerMatchesExpectation) {
  // Sanity: the engine's plumbing does not bias the estimator.
  ParallelOptions options = with_jobs(4);
  const MttdlEstimate e = run_trials(
      [](Xoshiro256& rng) { return rng.uniform(); }, 20000, 99, options);
  EXPECT_NEAR(e.mean_hours, 0.5, 5.0 * e.stderr_hours);
  EXPECT_NEAR(e.stddev_hours, std::sqrt(1.0 / 12.0), 0.01);
}

// --- Thread pool.

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> hits{0};
  std::vector<std::future<void>> done;
  done.reserve(100);
  for (int i = 0; i < 100; ++i) {
    done.push_back(pool.submit([&hits] { ++hits; }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> hits{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&hits] { ++hits; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool pool(0), ContractViolation);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace nsrel::sim
