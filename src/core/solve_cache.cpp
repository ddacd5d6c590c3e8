#include "core/solve_cache.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "util/sync.hpp"

namespace nsrel::core {

namespace {

struct CacheProbes {
  obs::Counter inserts;
  obs::Histogram insert_ns;
};

/// Registers the cache's whole counter family, so a run without a
/// single hit still reports solve_cache.hits = 0; hits and misses are
/// then bumped by their journal events' emit() calls.
CacheProbes cache_probes() {
  auto& registry = obs::Registry::instance();
  (void)registry.counter(obs::probe::kSolveCacheHits);
  (void)registry.counter(obs::probe::kSolveCacheMisses);
  return {registry.counter(obs::probe::kSolveCacheInserts),
          registry.histogram(obs::probe::kSolveCacheInsertNs)};
}

}  // namespace

[[nodiscard]] std::optional<Expected<double>> SolveCache::lookup(const std::string& key) {
  std::optional<Expected<double>> found;
  {
    const util::MutexLock lock(mutex_);
    const auto it = values_.find(key);
    if (it != values_.end()) found = it->second;
  }
  // Counters live outside the map mutex: relaxed atomics keep the Stats
  // façade exact per instance without extending the critical section.
  if (found.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::emit(obs::event::kCacheHit);
    return found;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::emit(obs::event::kCacheMiss);
  return std::nullopt;
}

void SolveCache::store(const std::string& key, Expected<double> outcome) {
  const CacheProbes probes =
      obs::Registry::enabled() ? cache_probes() : CacheProbes{};
  const obs::ScopedTimer timer(probes.insert_ns);
  bool inserted = false;
  {
    const util::MutexLock lock(mutex_);
    inserted = values_.emplace(key, std::move(outcome)).second;
  }
  if (inserted && obs::Registry::enabled()) {
    obs::Registry::instance().add(probes.inserts);
  }
}

SolveCache::Stats SolveCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SolveCache::size() const {
  const util::MutexLock lock(mutex_);
  return values_.size();
}

}  // namespace nsrel::core
