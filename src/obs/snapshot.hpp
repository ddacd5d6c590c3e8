// Diffable metrics documents: a MetricsSnapshot is a value-type copy of
// the recorder's summed metric cells with exact delta/merge algebra.
//
// The algebra is what makes snapshots composable across runs and
// processes (the `nsrel report` aggregator, the future `nsreld`
// resident service): for snapshots a ⊆ b taken from the same registry
// epoch (b observed every sample a did, plus possibly more — which is
// what two snapshot() calls with all writers joined in between give
// you),
//
//   merge(a, delta(a, b)) == b        exactly, field for field.
//
// Counters, histogram counts, sums, and log2 buckets subtract and add
// exactly. Min/max are not subtractable, so delta carries the *after*
// extremes when any samples were added (a superset's min/max are the
// true extremes of the combined population, making the round-trip
// identity hold) and the empty convention (0/0) otherwise.
#pragma once

#include <vector>

#include "obs/recorder.hpp"

namespace nsrel::obs {

struct MetricsSnapshot {
  std::vector<CounterRow> counters;      ///< sorted by name
  std::vector<HistogramRow> histograms;  ///< sorted by name

  /// The recorder's current metrics. Exact once all incrementing
  /// threads are joined (Recorder::snapshot() semantics).
  [[nodiscard]] static MetricsSnapshot capture();

  /// Per-name subtraction `after - before`. Keeps every row of `after`
  /// (zero deltas included — the identity above needs them); names only
  /// in `before` are a contract violation (registrations never vanish).
  [[nodiscard]] static MetricsSnapshot delta(const MetricsSnapshot& before,
                                             const MetricsSnapshot& after);

  /// Per-name addition; rows unique to either side pass through. Min
  /// combines respecting the count==0 convention (an empty histogram's
  /// 0 min never wins), max combines as plain max.
  [[nodiscard]] static MetricsSnapshot merge(const MetricsSnapshot& a,
                                             const MetricsSnapshot& b);
};

[[nodiscard]] bool operator==(const MetricsSnapshot& a,
                              const MetricsSnapshot& b);
[[nodiscard]] bool operator!=(const MetricsSnapshot& a,
                              const MetricsSnapshot& b);

}  // namespace nsrel::obs
