// The one observability recorder: every metric sample, trace span and
// journal event the library produces lands here.
//
// Each thread that fires a probe while a channel is on owns one lane:
// the metric cells only it increments (values folded in at record time,
// so counts are exact), and one growable vector of Records — timed
// trace spans and untimed journal events alike. Lanes are created on
// the first probe a thread fires with a channel on, so a run with every
// channel off allocates nothing, and a probe costs one relaxed load of
// the channel gate. A lane outlives its thread: at thread exit it is
// only marked free, its cells and records stay in place for the
// exporters, and the next new thread reuses it, so short-lived pool
// workers do not grow memory without bound.
//
// Exporters read every lane under the one mutex, so they run once the
// recording work has been joined:
//   - metrics: snapshot() sums the cells of every lane;
//   - trace:   write_trace() renders the timed records;
//   - journal: journal() returns the untimed records stable-sorted by
//              sequence scope.
// Nothing is dropped: the journal holds every event of the run. Events
// carry no wall-clock time; each is stamped with a deterministic scope
// (the engine's cell index, the sim runner's chunk index, the repair
// engine's serial counter) and every scope is written by one thread in
// emission order, so the exported journal is byte-identical at any
// --jobs.
//
// Registry (metrics.hpp), TraceRecorder (trace.hpp) and Journal
// (journal.hpp) are stateless per-channel views of this one recorder.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/probe_names.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

/// Channel bits of the recorder's one gate word.
enum Channel : std::uint32_t {
  kMetrics = 1U << 0U,
  kTrace = 1U << 1U,
  kJournal = 1U << 2U,
};

/// Monotonic (steady-clock) nanoseconds; the time base for every probe.
[[nodiscard]] std::uint64_t now_ns();

/// Handle to a named monotonic counter (Registry::counter()).
struct Counter {
  std::uint32_t slot = 0;
};

/// Handle to a named histogram: count/sum/min/max plus log2 buckets.
struct Histogram {
  std::uint32_t slot = 0;
};

/// Log2 buckets per histogram: bucket i counts values with bit width i
/// (2^47 ns is ~3.3 days, plenty for any duration this process records).
inline constexpr std::size_t kHistogramBuckets = 48;

struct CounterRow {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound (2^i - 1) of the bucket holding quantile q in [0, 1] —
  /// an order-of-magnitude answer, which is all log2 buckets give.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const;
};

struct MetricsSnapshot;  // snapshot.hpp

/// Which deterministic clock stamps a journal event: a sequence scope
/// (engine cells, sim chunks, cache/solve activity) or repair simulated
/// seconds (plus the engine's serial sequence for a total order).
enum class ClockDomain : unsigned char { kSequence, kSimTime };

/// One typed argument. Keys and literal values are string literals —
/// nothing owning, so a Record is trivially copyable.
struct Arg {
  enum class Kind : unsigned char { kNone, kUint, kDouble, kLiteral };

  Arg() = default;
  Arg(const char* k, std::uint64_t v)
      : key(k), kind(Kind::kUint), uint_value(v) {}
  Arg(const char* k, double v)
      : key(k), kind(Kind::kDouble), double_value(v) {}
  Arg(const char* k, const char* v)
      : key(k), kind(Kind::kLiteral), literal_value(v) {}

  const char* key = "";
  Kind kind = Kind::kNone;
  std::uint64_t uint_value = 0;
  double double_value = 0.0;
  const char* literal_value = "";
};

/// Arguments per record; enough for the widest (cell.claim, cell span).
inline constexpr std::size_t kMaxArgs = 4;

/// The one record type. A trace span has start/duration ticks and a
/// category; a journal event has zero ticks and a clock-domain stamp.
struct Record {
  const char* name = "";      ///< string literal from probe_names.hpp
  const char* category = "";  ///< trace spans only
  ClockDomain domain = ClockDomain::kSequence;
  std::uint64_t seq = 0;       ///< sequence scope or repair serial
  double sim_seconds = 0.0;    ///< kSimTime domain only
  std::uint64_t start_ns = 0;  ///< absolute steady-clock ns; 0 = event
  std::uint64_t dur_ns = 0;
  std::uint32_t arg_count = 0;
  std::array<Arg, kMaxArgs> args{};

  [[nodiscard]] bool timed() const { return start_ns != 0; }

  /// Appends an argument. Past kMaxArgs the last slot is overwritten: a
  /// probe never throws, and a clobbered trailing arg beats a crash.
  Record& arg(const Arg& a);
};

class Recorder {
 public:
  /// The process-wide recorder. Deliberately leaked: lane retirement at
  /// late thread teardown must always find a live instance.
  static Recorder& instance();

  /// The channel gate: one relaxed load.
  [[nodiscard]] static std::uint32_t channels() {
    return gate_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static bool on(Channel channel) {
    return (channels() & channel) != 0;
  }

  void enable(std::uint32_t channels);
  void disable(std::uint32_t channels);

  /// Drops the given channels' state: metrics zero every cell (names and
  /// handles stay valid), trace drops timed records and restarts the
  /// epoch, journal drops untimed records. Call with no recording in
  /// flight.
  void clear(std::uint32_t channels);

  /// Returns the handle for `name`, registering it on first use.
  /// Idempotent and thread-safe; past capacity the reserved overflow
  /// slot ("obs.dropped") is returned instead of throwing.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Folds into the calling thread's cells (no-op while metrics are off).
  void add(Counter counter, std::uint64_t delta = 1);
  void sample(Histogram histogram, std::uint64_t value);

  /// Appends to the calling thread's lane. Callers check the channel.
  void push(const Record& record);

  /// The armed path of emit()/emit_at(): journals the event if the
  /// journal is on and adds `count` to its paired counter if metrics are.
  void record_event(const EventName& event, ClockDomain domain,
                    std::uint64_t seq, double sim_seconds,
                    std::initializer_list<Arg> args, std::uint64_t count);

  /// Sums every lane's cells. Exact once all writers are joined;
  /// concurrent increments may or may not be included, never torn.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The Chrome/Perfetto trace_event document of every timed record.
  void write_trace(std::ostream& out) const;

  /// Every untimed record, stable-sorted by sequence scope.
  [[nodiscard]] std::vector<Record> journal() const;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

 private:
  Recorder();
  ~Recorder() = default;

  struct Lane;
  friend struct LaneHolder;

  Lane& lane();
  void retire(Lane& lane);

  // Relaxed probe gate (see tools/lint/atomics.tsv).
  static inline std::atomic<std::uint32_t> gate_{0};
  mutable util::Mutex mutex_;
  std::vector<std::string> counter_names_ NSREL_GUARDED_BY(mutex_);
  std::vector<std::string> histogram_names_ NSREL_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Lane>> lanes_ NSREL_GUARDED_BY(mutex_);
  std::uint64_t epoch_ns_ NSREL_GUARDED_BY(mutex_) = 0;
};

/// The calling thread's current sequence scope (0 outside any scope).
[[nodiscard]] std::uint64_t current_scope();

/// RAII sequence scope: sets the calling thread's scope, restores the
/// previous one on destruction. Thread-local — a scope set on the
/// submitting thread is NOT visible inside pool workers; pass the value
/// explicitly into the task and re-establish it there.
class ScopeGuard {
 public:
  explicit ScopeGuard(std::uint64_t scope);
  ~ScopeGuard();

  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  std::uint64_t saved_;
};

/// Sequence-domain event stamped with the calling thread's scope: one
/// call journals it (journal channel on) and adds `count` to the
/// event's paired counter (metrics channel on). Off, it costs one
/// relaxed load.
inline void emit(const EventName& event, std::initializer_list<Arg> args = {},
                 std::uint64_t count = 1) {
  if (Recorder::channels() != 0) {
    Recorder::instance().record_event(event, ClockDomain::kSequence,
                                      current_scope(), 0.0, args, count);
  }
}

/// Sim-time-domain event (repair engine): `seq` is the engine's serial
/// event counter, `sim_seconds` the simulated clock at emission.
inline void emit_at(const EventName& event, std::uint64_t seq,
                    double sim_seconds, std::initializer_list<Arg> args = {},
                    std::uint64_t count = 1) {
  if (Recorder::channels() != 0) {
    Recorder::instance().record_event(event, ClockDomain::kSimTime, seq,
                                      sim_seconds, args, count);
  }
}

}  // namespace nsrel::obs
