#include "obs/recorder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

namespace {

// Fixed cell capacity per lane: registrations beyond these land in the
// reserved overflow slot 0 ("obs.dropped*") instead of failing the caller.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxHistograms = 64;
constexpr std::uint64_t kEmptyMin = std::numeric_limits<std::uint64_t>::max();

std::size_t bucket_of(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return std::min(width, kHistogramBuckets - 1);
}

/// Minimal JSON string escaping (the obs layer sits below src/report, so
/// it cannot reuse report::json_escape without a dependency cycle).
std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Nanoseconds as trace_event microseconds with sub-us precision.
std::string as_us(std::uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

thread_local std::uint64_t tls_scope = 0;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t HistogramRow::quantile_bound(double q) const {
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }
  return max;
}

Record& Record::arg(const Arg& a) {
  const std::uint32_t slot =
      arg_count < kMaxArgs ? arg_count++ : kMaxArgs - 1;
  args[slot] = a;
  return *this;
}

/// One thread's lane. Only the owning thread writes the cells (relaxed
/// atomics, so snapshot() may read them at any time) and the records
/// (plain; exporters read them under the recorder mutex once the owner
/// is joined or idle — the join provides the happens-before edge).
/// `in_use` is read and written only under the recorder mutex.
struct Recorder::Lane {
  struct HistogramCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{kEmptyMin};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  std::uint32_t tid = 0;  ///< stable trace thread id: the lane's index
  bool in_use = false;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};
  std::vector<Record> records;

  void clear_metrics() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(kEmptyMin, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

/// The one thread-local lane holder: acquired on the first probe a
/// thread fires with a channel on, handed back at thread exit. At
/// namespace scope so the Recorder friend declaration names this type.
struct LaneHolder {
  Recorder::Lane* lane = nullptr;
  ~LaneHolder() {
    if (lane != nullptr) Recorder::instance().retire(*lane);
  }
};

namespace {
thread_local LaneHolder tls_lane;
}  // namespace

Recorder::Recorder() {
  // Slot 0 of both tables is the overflow sink for registrations past
  // capacity; real registrations start at slot 1.
  counter_names_.emplace_back("obs.dropped");
  histogram_names_.emplace_back("obs.dropped_ns");
}

Recorder& Recorder::instance() {
  static Recorder* leaked = new Recorder;  // never destroyed, see header
  return *leaked;
}

void Recorder::enable(std::uint32_t channels) {
  gate_.fetch_or(channels, std::memory_order_relaxed);
}

void Recorder::disable(std::uint32_t channels) {
  gate_.fetch_and(~channels, std::memory_order_relaxed);
}

void Recorder::clear(std::uint32_t channels) {
  const util::MutexLock lock(mutex_);
  if ((channels & kTrace) != 0) epoch_ns_ = now_ns();
  for (const auto& lane : lanes_) {
    if ((channels & kMetrics) != 0) lane->clear_metrics();
    std::erase_if(lane->records, [channels](const Record& record) {
      return (channels & (record.timed() ? kTrace : kJournal)) != 0;
    });
  }
}

Counter Recorder::counter(std::string_view name) {
  const util::MutexLock lock(mutex_);
  const auto it = std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it != counter_names_.end()) {
    return Counter{static_cast<std::uint32_t>(it - counter_names_.begin())};
  }
  if (counter_names_.size() >= kMaxCounters) return Counter{0};
  counter_names_.emplace_back(name);
  return Counter{static_cast<std::uint32_t>(counter_names_.size() - 1)};
}

Histogram Recorder::histogram(std::string_view name) {
  const util::MutexLock lock(mutex_);
  const auto it =
      std::find(histogram_names_.begin(), histogram_names_.end(), name);
  if (it != histogram_names_.end()) {
    return Histogram{static_cast<std::uint32_t>(it - histogram_names_.begin())};
  }
  if (histogram_names_.size() >= kMaxHistograms) return Histogram{0};
  histogram_names_.emplace_back(name);
  return Histogram{static_cast<std::uint32_t>(histogram_names_.size() - 1)};
}

Recorder::Lane& Recorder::lane() {
  if (tls_lane.lane == nullptr) {
    const util::MutexLock lock(mutex_);
    for (const auto& free : lanes_) {
      if (!free->in_use) {
        tls_lane.lane = free.get();
        break;
      }
    }
    if (tls_lane.lane == nullptr) {
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->tid = static_cast<std::uint32_t>(lanes_.size() - 1);
      tls_lane.lane = lanes_.back().get();
    }
    tls_lane.lane->in_use = true;
  }
  return *tls_lane.lane;
}

void Recorder::retire(Lane& lane) {
  const util::MutexLock lock(mutex_);
  lane.in_use = false;
}

void Recorder::add(Counter counter, std::uint64_t delta) {
  if (!on(kMetrics)) return;
  lane().counters[counter.slot].fetch_add(delta, std::memory_order_relaxed);
}

void Recorder::sample(Histogram histogram, std::uint64_t value) {
  if (!on(kMetrics)) return;
  auto& cells = lane().histograms[histogram.slot];
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  // Owner-only writes: plain compare-and-store, no CAS loop needed.
  if (value < cells.min.load(std::memory_order_relaxed)) {
    cells.min.store(value, std::memory_order_relaxed);
  }
  if (value > cells.max.load(std::memory_order_relaxed)) {
    cells.max.store(value, std::memory_order_relaxed);
  }
  cells.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

void Recorder::push(const Record& record) { lane().records.push_back(record); }

MetricsSnapshot Recorder::snapshot() const {
  const util::MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    CounterRow row{counter_names_[i], 0};
    for (const auto& lane : lanes_) {
      row.value += lane->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramRow row;
    row.name = histogram_names_[i];
    std::uint64_t lowest = kEmptyMin;
    for (const auto& lane : lanes_) {
      const Lane::HistogramCells& cells = lane->histograms[i];
      row.count += cells.count.load(std::memory_order_relaxed);
      row.sum += cells.sum.load(std::memory_order_relaxed);
      lowest = std::min(lowest, cells.min.load(std::memory_order_relaxed));
      row.max = std::max(row.max, cells.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        row.buckets[b] += cells.buckets[b].load(std::memory_order_relaxed);
      }
    }
    row.min = row.count == 0 ? 0 : lowest;
    snap.histograms.push_back(std::move(row));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Recorder::write_trace(std::ostream& out) const {
  const util::MutexLock lock(mutex_);
  out << "{\n  \"traceEvents\": [";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const Record& span : lane->records) {
      if (!span.timed()) continue;
      out << (first ? "\n" : ",\n");
      first = false;
      const std::uint64_t rel =
          span.start_ns >= epoch_ns_ ? span.start_ns - epoch_ns_ : 0;
      out << "    {\"name\": \"" << escape(span.name) << "\", \"cat\": \""
          << escape(span.category) << "\", \"ph\": \"X\", \"ts\": "
          << as_us(rel) << ", \"dur\": " << as_us(span.dur_ns)
          << ", \"pid\": 1, \"tid\": " << lane->tid;
      for (std::uint32_t i = 0; i < span.arg_count; ++i) {
        const Arg& a = span.args[i];
        out << (i == 0 ? ", \"args\": {" : ", ") << "\"" << escape(a.key)
            << "\": ";
        if (a.kind == Arg::Kind::kLiteral) {
          out << "\"" << escape(a.literal_value) << "\"";
        } else if (a.kind == Arg::Kind::kDouble) {
          char buffer[32];
          std::snprintf(buffer, sizeof(buffer), "%.17g", a.double_value);
          out << buffer;
        } else {
          out << a.uint_value;
        }
      }
      out << (span.arg_count != 0 ? "}}" : "}");
    }
  }
  const BuildInfo& build = build_info();
  out << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
      << "\"semver\": \"" << escape(build.semver) << "\", \"git_sha\": \""
      << escape(build.git_sha) << "\", \"compiler\": \""
      << escape(build.compiler) << "\", \"build_type\": \""
      << escape(build.build_type) << "\"}\n}\n";
}

std::vector<Record> Recorder::journal() const {
  const util::MutexLock lock(mutex_);
  std::vector<Record> events;
  for (const auto& lane : lanes_) {
    for (const Record& record : lane->records) {
      if (!record.timed()) events.push_back(record);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return events;
}

std::uint64_t current_scope() { return tls_scope; }

ScopeGuard::ScopeGuard(std::uint64_t scope) : saved_(tls_scope) {
  tls_scope = scope;
}

ScopeGuard::~ScopeGuard() { tls_scope = saved_; }

void Recorder::record_event(const EventName& event, ClockDomain domain,
                            std::uint64_t seq, double sim_seconds,
                            std::initializer_list<Arg> args,
                            std::uint64_t count) {
  if (on(kJournal)) {
    Record record;
    record.name = event.name;
    record.domain = domain;
    record.seq = seq;
    record.sim_seconds = sim_seconds;
    for (const Arg& a : args) record.arg(a);
    push(record);
  }
  if (on(kMetrics) && event.counter != nullptr) add(counter(event.counter), count);
}

bool TraceRecorder::write_file(const std::string& path) {
  disable();
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  out.flush();
  return static_cast<bool>(out);
}

void Span::arm(const char* name, const char* category) {
  record_.emplace();
  record_->name = name;
  record_->category = category;
  record_->start_ns = now_ns();
}

void Span::finish(Record& record) {
  if (!Recorder::on(kTrace)) return;  // tracing stopped mid-span
  record.dur_ns = now_ns() - record.start_ns;
  Recorder::instance().push(record);
}

void print_metrics_block(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "== nsrel metrics ==\n";
  for (const auto& row : snapshot.counters) {
    if (row.value == 0 && row.name.rfind("obs.", 0) == 0) continue;
    out << "  " << row.name << " = " << row.value << "\n";
  }
  for (const auto& row : snapshot.histograms) {
    if (row.count == 0) continue;
    out << "  " << row.name << "  count=" << row.count
        << " sum=" << row.sum << " mean=" << static_cast<std::uint64_t>(row.mean())
        << " min=" << row.min << " max=" << row.max
        << " p50<" << row.quantile_bound(0.50)
        << " p90<" << row.quantile_bound(0.90)
        << " p99<" << row.quantile_bound(0.99) << "\n";
  }
  out << "== end metrics ==\n";
}

}  // namespace nsrel::obs
