// Microbenchmarks (google-benchmark) for the numeric machinery: chain
// construction, the recursive no-internal-RAID solve as k grows, the
// closed forms — quantifying the cost of exact vs approximate paths — and
// the parallel Monte-Carlo engine's scaling across worker counts.
#include <benchmark/benchmark.h>
#include <cstddef>

#include "perf_json.hpp"

#include "ctmc/absorbing.hpp"
#include "models/no_internal_raid.hpp"
#include "sim/storage_simulator.hpp"

namespace {

using namespace nsrel;

// R = 12, widened to 20 where k reaches it (R > k).
models::NoInternalRaidParams nir_params(int k) {
  models::NoInternalRaidParams p;
  p.node_set_size = 64;
  p.redundancy_set_size = k < 12 ? 12 : 20;
  p.fault_tolerance = k;
  p.drives_per_node = 12;
  p.node_failure = PerHour(1.0 / 400'000.0);
  p.drive_failure = PerHour(1.0 / 300'000.0);
  p.node_rebuild = PerHour(0.19);
  p.drive_rebuild = PerHour(2.28);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

void BM_NirChainBuild(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.chain());
  }
}
// Assembly is linear in the transitions: k = 11, 13 and 16 (4096 to
// 131072 states) show the slope past the paper's k <= 3.
BENCHMARK(BM_NirChainBuild)->DenseRange(1, 7)->Arg(11)->Arg(13)->Arg(16);

void BM_NirExactSolve(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_exact().value());
  }
}
BENCHMARK(BM_NirExactSolve)->DenseRange(1, 7)->Arg(11)->Arg(13)->Arg(16);

void BM_NirClosedForm(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_closed_form().value());
  }
}
BENCHMARK(BM_NirClosedForm)->DenseRange(1, 7);

// Elimination on the block-recursive absorption matrix as k grows. A
// wider redundancy set lifts the R > k precondition out of the way so k
// can sweep to the k = 16 cap.
models::NoInternalRaidParams crossover_params(int k) {
  models::NoInternalRaidParams p = nir_params(2);
  p.redundancy_set_size = 32;
  p.fault_tolerance = k;
  return p;
}

void BM_NirRecursiveSolveSparse(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      crossover_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_recursive_matrix().value());
  }
  state.counters["states"] =
      static_cast<double>((std::size_t{2} << state.range(0)) - 1);
}
// Leaf-first elimination has zero fill-in on these trees, so the solve
// is O(n) all the way to the k = 16 cap (131071 states, ~0.1 s).
BENCHMARK(BM_NirRecursiveSolveSparse)->DenseRange(4, 16);

void BM_AbsorbingFullAnalysis(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  const auto chain = model.chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::AbsorbingSolver::analyze(
        chain, models::NoInternalRaidModel::root_state()));
  }
}
// Beyond k = 4 the realistic-rate chain's absorption matrix drops below
// the solver's rcond guard (the MTTDL overflows what LU can resolve),
// so the full-analysis bench stops there; BM_NirRecursiveSolveSparse covers
// larger state spaces through the guard-free elimination path.
BENCHMARK(BM_AbsorbingFullAnalysis)->DenseRange(1, 4);

// Accelerated rates (as in tests/test_sim.cpp): trajectories absorb after
// ~1e2-1e4 events so a trial batch is a realistic validation workload.
models::NoInternalRaidParams accelerated_nir(int k) {
  models::NoInternalRaidParams p;
  p.node_set_size = 8;
  p.redundancy_set_size = 4;
  p.fault_tolerance = k;
  p.drives_per_node = 3;
  p.node_failure = PerHour(0.002);
  p.drive_failure = PerHour(0.003);
  p.node_rebuild = PerHour(1.0);
  p.drive_rebuild = PerHour(3.0);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

// Wall-clock scaling of the parallel Monte-Carlo engine with the worker
// count (results are bit-identical across the arg range by construction).
void BM_NirSimEstimateJobs(benchmark::State& state) {
  const sim::NirStorageSimulator simulator(accelerated_nir(2), 1);
  sim::ParallelOptions options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.estimate(4000, options).mean_hours);
  }
}
BENCHMARK(BM_NirSimEstimateJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Adaptive stopping: how much work a ±5% CI actually needs. The trials
// counter is deterministic (the same at any job count), so the counter
// gate pins the estimator's trials-to-CI.
void BM_NirSimAdaptiveCi(benchmark::State& state) {
  const sim::NirStorageSimulator simulator(accelerated_nir(2), 1);
  sim::ParallelOptions options;
  options.jobs = static_cast<int>(state.range(0));
  options.ci_target = 0.05;
  options.max_trials = 100000;
  int trials = 0;
  for (auto _ : state) {
    trials = simulator.estimate(1024, options).trials;
    benchmark::DoNotOptimize(trials);
  }
  state.counters["trials"] = static_cast<double>(trials);
}
BENCHMARK(BM_NirSimAdaptiveCi)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return nsrel::bench::perf_main(argc, argv, "perf_solvers");
}
