#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace nsrel::sim {

namespace {

/// Samples one whole chunk into a fresh accumulator. Depends only on
/// (seed, chunk index, chunk trial count) — never on the calling thread.
/// `scope_base` is the journal scope of the run_trials *caller*, passed
/// explicitly because thread-local scope does not cross into pool
/// workers; chunk c journals at scope_base + c + 1, a pure function of
/// the chunk layout.
RatioAccumulator sample_chunk(const RegenerativeSampler& sample_one,
                              std::uint64_t seed, std::uint64_t chunk,
                              int chunk_trials, std::uint64_t scope_base) {
  const obs::ScopeGuard journal_scope(scope_base + chunk + 1);
  const auto trials = static_cast<std::uint64_t>(chunk_trials);
  obs::Span span(obs::probe::kSpanChunk, obs::probe::kSpanCategorySim);
  span.arg("stream", chunk);
  span.arg("trials", trials);
  Xoshiro256 rng(stream_seed(seed, chunk));
  RatioAccumulator acc;
  for (int i = 0; i < chunk_trials; ++i) {
    const RegenerativeTrial trial = sample_one(rng);
    acc.add(trial.cycle_hours, trial.loss_weight);
  }
  obs::emit(obs::event::kSimChunk, {{"stream", chunk}, {"trials", trials}});
  return acc;
}

/// Fills accumulators[first..first+count) — one slot per chunk — using
/// the pool (or inline when it is null). Workers claim chunk indices
/// from an atomic counter and write disjoint slots, so the contents of
/// `accumulators` are schedule-independent.
void run_wave(const RegenerativeSampler& sample_one, std::uint64_t seed,
              std::size_t first, std::size_t count, int chunk_trials,
              std::vector<RatioAccumulator>& accumulators,
              ThreadPool* pool, obs::ProgressMeter* progress,
              std::uint64_t scope_base) {
  if (pool == nullptr || count == 1) {
    for (std::size_t c = first; c < first + count; ++c) {
      accumulators[c] =
          sample_chunk(sample_one, seed, c, chunk_trials, scope_base);
      if (progress != nullptr) progress->step();
    }
    return;
  }
  std::atomic<std::size_t> next{first};
  const std::size_t limit = first + count;
  const auto worker = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= limit) return;
      accumulators[c] =
          sample_chunk(sample_one, seed, c, chunk_trials, scope_base);
      if (progress != nullptr) progress->step();
    }
  };
  const std::size_t lanes =
      std::min<std::size_t>(static_cast<std::size_t>(pool->thread_count()),
                            count);
  std::vector<std::future<void>> done;
  done.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) done.push_back(pool->submit(worker));
  for (auto& f : done) f.get();
}

}  // namespace

MttdlEstimate run_trials(const RegenerativeSampler& sample_one, int trials,
                         std::uint64_t seed, const ParallelOptions& options) {
  NSREL_EXPECTS(trials >= 2);
  NSREL_EXPECTS(options.chunk_trials >= 1);
  NSREL_EXPECTS(options.jobs >= 0);
  NSREL_EXPECTS(options.ci_target >= 0.0);

  const int jobs =
      options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
  const bool adaptive = options.ci_target > 0.0;
  NSREL_EXPECTS(!adaptive || options.max_trials >= trials);

  const int chunk = options.chunk_trials;
  // In fixed mode the last chunk is ragged so exactly `trials` run; in
  // adaptive mode every chunk is full so later waves extend the same
  // stream layout (chunk c's contents are identical either way up to
  // the ragged tail, which adaptive mode never produces).
  const std::size_t wave_chunks =
      (static_cast<std::size_t>(trials) + static_cast<std::size_t>(chunk) - 1) /
      static_cast<std::size_t>(chunk);
  const std::size_t max_chunks =
      adaptive ? (static_cast<std::size_t>(options.max_trials) +
                  static_cast<std::size_t>(chunk) - 1) /
                     static_cast<std::size_t>(chunk)
               : wave_chunks;

  // Captured on the calling thread and passed explicitly into every
  // chunk: pool workers have no thread-local scope of their own.
  const std::uint64_t scope_base = obs::current_scope();

  std::vector<RatioAccumulator> accumulators;
  RatioAccumulator merged;
  {
    std::optional<ThreadPool> pool_storage;
    if (jobs > 1) pool_storage.emplace(jobs);
    ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

    std::size_t chunks_done = 0;
    for (;;) {
      std::size_t count = std::min(wave_chunks, max_chunks - chunks_done);
      NSREL_ASSERT(count > 0);
      accumulators.resize(chunks_done + count);
      if (!adaptive) {
        // Ragged tail: all chunks full except possibly the last.
        for (std::size_t c = chunks_done; c < chunks_done + count; ++c) {
          const std::size_t begin = c * static_cast<std::size_t>(chunk);
          const int size = static_cast<int>(
              std::min<std::size_t>(static_cast<std::size_t>(chunk),
                                    static_cast<std::size_t>(trials) - begin));
          if (size == chunk) continue;
          // Run the ragged chunk inline (it is unique and tiny).
          accumulators[c] = sample_chunk(sample_one, seed, c, size, scope_base);
          if (options.progress != nullptr) options.progress->step();
        }
        const std::size_t full =
            static_cast<std::size_t>(trials) %
                        static_cast<std::size_t>(chunk) ==
                    0
                ? count
                : count - 1;
        if (full > 0) {
          run_wave(sample_one, seed, chunks_done, full, chunk, accumulators,
                   pool, options.progress, scope_base);
        }
      } else {
        run_wave(sample_one, seed, chunks_done, count, chunk, accumulators,
                 pool, options.progress, scope_base);
      }
      chunks_done += count;

      merged = merge_pairwise(accumulators);
      if (!adaptive || chunks_done >= max_chunks) break;
      // Until some trial sees a loss the ratio is unbounded: keep going.
      if (merged.loss.mean > 0.0 &&
          make_estimate(merged).relative_half_width() <= options.ci_target) {
        break;
      }
    }
  }
  return make_estimate(merged);
}

MttdlEstimate run_trials(const TrialSampler& sample_one, int trials,
                         std::uint64_t seed, const ParallelOptions& options) {
  return run_trials(
      RegenerativeSampler([&sample_one](Xoshiro256& rng) {
        return RegenerativeTrial{sample_one(rng), 1.0};
      }),
      trials, seed, options);
}

}  // namespace nsrel::sim
