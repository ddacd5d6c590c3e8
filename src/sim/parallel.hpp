// Shared parallel Monte-Carlo engine for every simulator in src/sim.
//
// A trial is one paired observation (cycle time, weighted loss): the
// regenerative estimator of sim/regenerative.hpp. A direct sampler
// (TrialSampler) is the case loss == 1 and yields its plain sample mean.
//
// Trials are split into fixed-size chunks. Chunk c draws from its own
// Xoshiro256 stream seeded by stream_seed(seed, c) — independent of every
// other chunk and of thread scheduling — and folds its samples into a
// private RatioAccumulator. Completed chunks are merged on the calling
// thread with a balanced pairwise combine in chunk-index order, so the
// returned estimate is **bit-identical for a fixed (seed, trials,
// chunk_trials) no matter how many worker threads run** (jobs = 1 and
// jobs = 64 produce the same doubles).
//
// Adaptive stopping: with ci_target > 0 the engine runs waves of chunks
// (each wave the size of the initial `trials` request, rounded up to
// whole chunks) and stops at the first wave boundary where the 95% CI
// relative half-width falls below the target, or once max_trials is
// reached. A wave boundary at which no trial has yet observed a loss
// never stops the run early; if none has by the end, run_trials throws a
// typed non_finite_result ErrorException. Because the decision is
// evaluated only at wave boundaries —
// a schedule that depends solely on the options, never on which thread
// finished first — adaptive runs are deterministic too.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/estimate.hpp"
#include "util/rng.hpp"

namespace nsrel::obs {
class ProgressMeter;
}  // namespace nsrel::obs

namespace nsrel::sim {

struct ParallelOptions {
  /// Worker threads. 1 runs inline on the caller (no pool); 0 means
  /// "all hardware threads". Thread count never changes results.
  int jobs = 1;

  /// Trials per RNG-stream chunk. Part of the result's identity: the
  /// same seed with a different chunk size is a different (equally
  /// valid) estimate.
  int chunk_trials = 256;

  /// Adaptive stopping target for the 95% CI half-width relative to the
  /// mean (e.g. 0.05 = ±5%). 0 disables adaptive mode and exactly
  /// `trials` trials run.
  double ci_target = 0.0;

  /// Upper bound on total trials in adaptive mode (rounded up to whole
  /// chunks). Ignored when ci_target == 0.
  int max_trials = 1'000'000;

  /// Optional progress meter stepped once per completed chunk (stderr
  /// only — estimates are unaffected). Not owned.
  obs::ProgressMeter* progress = nullptr;
};

/// One Monte-Carlo trial: draws from the given RNG and returns the
/// sampled time. Must be safe to call concurrently from several threads
/// with distinct RNGs (i.e. read-only access to shared model state).
using TrialSampler = std::function<double(Xoshiro256&)>;

/// One regenerative trial: a plain cycle's time and an independent
/// biased cycle's likelihood-weighted loss (sim/regenerative.hpp).
struct RegenerativeTrial {
  double cycle_hours = 0.0;
  double loss_weight = 1.0;
};
using RegenerativeSampler = std::function<RegenerativeTrial(Xoshiro256&)>;

/// Runs `trials` trials (more in adaptive mode, see above) and returns
/// the ratio estimate mean(cycle_hours) / mean(loss_weight).
/// Preconditions: trials >= 2, options valid.
[[nodiscard]] MttdlEstimate run_trials(const RegenerativeSampler& sample_one,
                                       int trials, std::uint64_t seed,
                                       const ParallelOptions& options = {});

/// A direct sampler: every trial has loss_weight 1, so the estimate is
/// the sample mean of the draws.
[[nodiscard]] MttdlEstimate run_trials(const TrialSampler& sample_one,
                                       int trials, std::uint64_t seed,
                                       const ParallelOptions& options = {});

}  // namespace nsrel::sim
