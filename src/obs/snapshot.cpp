#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace nsrel::obs {

namespace {

HistogramRow subtract(const HistogramRow& before, const HistogramRow& after) {
  NSREL_EXPECTS(after.count >= before.count);
  NSREL_EXPECTS(after.sum >= before.sum);
  HistogramRow d;
  d.name = after.name;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  // Extremes are not subtractable; carry the after-side extremes when
  // the delta is non-empty (see header) and the empty convention else.
  d.min = d.count == 0 ? 0 : after.min;
  d.max = d.count == 0 ? 0 : after.max;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    NSREL_EXPECTS(after.buckets[b] >= before.buckets[b]);
    d.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  return d;
}

HistogramRow combine(const HistogramRow& a, const HistogramRow& b) {
  HistogramRow m;
  m.name = a.name;
  m.count = a.count + b.count;
  m.sum = a.sum + b.sum;
  if (a.count == 0) {
    m.min = b.min;
  } else if (b.count == 0) {
    m.min = a.min;
  } else {
    m.min = std::min(a.min, b.min);
  }
  m.max = std::max(a.max, b.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    m.buckets[i] = a.buckets[i] + b.buckets[i];
  }
  return m;
}

bool rows_equal(const HistogramRow& a, const HistogramRow& b) {
  return a.name == b.name && a.count == b.count && a.sum == b.sum &&
         a.min == b.min && a.max == b.max && a.buckets == b.buckets;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::capture() {
  return Recorder::instance().snapshot();
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  // Both sides are name-sorted; index `before` for the subtraction.
  // std::map keeps iteration deterministic (never a hash map).
  std::map<std::string, const CounterRow*> counters_before;
  for (const CounterRow& row : before.counters) {
    counters_before.emplace(row.name, &row);
  }
  std::map<std::string, const HistogramRow*> histograms_before;
  for (const HistogramRow& row : before.histograms) {
    histograms_before.emplace(row.name, &row);
  }

  MetricsSnapshot d;
  for (const CounterRow& row : after.counters) {
    const auto it = counters_before.find(row.name);
    const std::uint64_t base = it == counters_before.end() ? 0 : it->second->value;
    NSREL_EXPECTS(row.value >= base);
    d.counters.push_back({row.name, row.value - base});
  }
  for (const HistogramRow& row : after.histograms) {
    const auto it = histograms_before.find(row.name);
    if (it == histograms_before.end()) {
      d.histograms.push_back(row);
    } else {
      d.histograms.push_back(subtract(*it->second, row));
    }
  }
  return d;
}

MetricsSnapshot MetricsSnapshot::merge(const MetricsSnapshot& a,
                                       const MetricsSnapshot& b) {
  std::map<std::string, std::uint64_t> counters;
  for (const CounterRow& row : a.counters) counters[row.name] += row.value;
  for (const CounterRow& row : b.counters) counters[row.name] += row.value;

  std::map<std::string, HistogramRow> histograms;
  for (const HistogramRow& row : a.histograms) histograms.emplace(row.name, row);
  for (const HistogramRow& row : b.histograms) {
    const auto [it, inserted] = histograms.emplace(row.name, row);
    if (!inserted) it->second = combine(it->second, row);
  }

  MetricsSnapshot m;
  for (const auto& [name, value] : counters) m.counters.push_back({name, value});
  for (auto& [name, row] : histograms) m.histograms.push_back(std::move(row));
  return m;
}

bool operator==(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  if (a.counters.size() != b.counters.size()) return false;
  if (a.histograms.size() != b.histograms.size()) return false;
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    if (a.counters[i].name != b.counters[i].name) return false;
    if (a.counters[i].value != b.counters[i].value) return false;
  }
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    if (!rows_equal(a.histograms[i], b.histograms[i])) return false;
  }
  return true;
}

bool operator!=(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  return !(a == b);
}

}  // namespace nsrel::obs
