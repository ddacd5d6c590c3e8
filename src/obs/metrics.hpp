// Metrics view of the recorder: named monotonic counters and duration
// histograms shared by every subsystem (thread pool, solve cache,
// engine, Monte-Carlo runner, repair) and rendered as the CLI's
// `--metrics` block or a `--metrics-out` document.
//
// Probes are compiled in everywhere and cost one relaxed load of the
// recorder's gate while metrics are off (the default). When on, each
// thread folds samples into its own lane's cells — relaxed atomics only
// it writes — so counters never contend; snapshot() sums the lanes
// under the recorder mutex and is exact once the writers are joined.
//
// Handles are small indices resolved once by name; registration is
// idempotent and thread-safe, and never throws: names past the fixed
// capacity share the reserved "obs.dropped" slot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"

namespace nsrel::obs {

/// The metrics channel of the one recorder. Holds no state.
class Registry {
 public:
  using Snapshot = MetricsSnapshot;

  static Registry& instance() {
    static Registry view;
    return view;
  }

  /// The probe gate: one relaxed load. All probes no-op when off.
  [[nodiscard]] static bool enabled() { return Recorder::on(kMetrics); }
  void set_enabled(bool on) {
    if (on) {
      Recorder::instance().enable(kMetrics);
    } else {
      Recorder::instance().disable(kMetrics);
    }
  }

  [[nodiscard]] Counter counter(std::string_view name) {
    return Recorder::instance().counter(name);
  }
  [[nodiscard]] Histogram histogram(std::string_view name) {
    return Recorder::instance().histogram(name);
  }

  /// Adds `delta` to the counter (no-op while disabled).
  void add(Counter counter, std::uint64_t delta = 1) {
    Recorder::instance().add(counter, delta);
  }

  /// Records one sample into the histogram (no-op while disabled).
  void record(Histogram histogram, std::uint64_t value) {
    Recorder::instance().sample(histogram, value);
  }

  /// Every counter and histogram, sorted by name.
  [[nodiscard]] Snapshot snapshot() const {
    return Recorder::instance().snapshot();
  }

  /// Zeroes every value. Registered names and handles stay valid.
  void reset() { Recorder::instance().clear(kMetrics); }
};

/// RAII histogram timer: reads the clock only when metrics are on at
/// construction, records elapsed ns at destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram)
      : histogram_(histogram), start_(Registry::enabled() ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (start_ != 0) Recorder::instance().sample(histogram_, now_ns() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram histogram_;
  std::uint64_t start_;
};

/// Renders the snapshot as the CLI's `--metrics` stderr block: counters
/// then histogram summaries, both sorted by name.
void print_metrics_block(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace nsrel::obs
