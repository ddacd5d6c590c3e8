// Shared helpers for the figure-reproduction binaries. Each bench prints
// the series behind one paper figure: rows of (parameter value, events per
// PB-year per configuration) so the shape — orderings, crossovers, where
// the target line is crossed — can be compared with the paper directly.
//
// All sweeps run through engine::evaluate with a per-binary shared solve
// cache: figures that revisit a configuration (e.g. both drive-MTTF
// endpoints of figure 15) skip the repeated chain solves, and the fan-out
// uses every core without changing a byte of output.
// Machine-readable results: every figure binary accepts `--json-out FILE`
// and writes its per-sweep wall-clock timings (plus solve-cache traffic)
// as a stable nsrel-bench-v1 document, so perf trajectories can be
// tracked across commits without scraping tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace nsrel::bench {

inline const core::ReliabilityTarget kTarget = core::ReliabilityTarget::paper();

/// One solve cache per bench binary, shared by every print_sweep/evaluate
/// call so repeated (model, method) pairs across a figure's sections are
/// solved once.
inline core::SolveCache& shared_cache() {
  static core::SolveCache cache;
  return cache;
}

/// Engine options every bench uses: all cores, shared cache.
inline engine::EvalOptions eval_options() {
  engine::EvalOptions options;
  options.jobs = 0;  // all hardware threads; output is jobs-invariant
  options.cache = &shared_cache();
  return options;
}

/// Prints the standard preamble: figure id, what is swept, the target.
inline void preamble(const std::string& figure, const std::string& what) {
  std::cout << figure << ": " << what << "\n"
            << "reliability target: < " << sci(kTarget.events_per_pb_year)
            << " data loss events per PB-year\n";
}

/// One measured unit of bench work in the nsrel-bench-v1 document.
struct BenchEntry {
  std::string name;
  std::uint64_t iterations = 1;
  double real_ns = 0.0;
  double cpu_ns = -1.0;  ///< < 0 renders as null (not measured)
  std::vector<std::pair<std::string, double>> counters;
};

/// The CPU model string from /proc/cpuinfo's first "model name" line;
/// "unknown" where that file or line does not exist.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// Writes the nsrel-bench-v1 document: schema, binary, build identity,
/// the host it ran on, one record per entry. Stable key order; numbers
/// round-trip through strtod.
inline void write_bench_json(std::ostream& out, const std::string& binary,
                             const std::vector<BenchEntry>& entries) {
  const obs::BuildInfo& build = obs::build_info();
  report::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("nsrel-bench-v1");
  json.key("binary").value(binary);
  json.key("build").begin_object();
  json.key("semver").value(build.semver);
  json.key("git_sha").value(build.git_sha);
  json.key("compiler").value(build.compiler);
  json.key("build_type").value(build.build_type);
  json.end_object();
  json.key("host").begin_object();
  json.key("hardware_threads")
      .value(std::uint64_t{std::thread::hardware_concurrency()});
  json.key("cpu_model").value(cpu_model());
  json.end_object();
  json.key("benchmarks").begin_array();
  for (const BenchEntry& entry : entries) {
    json.begin_object();
    json.key("name").value(entry.name);
    json.key("iterations").value(entry.iterations);
    json.key("real_ns").value(entry.real_ns);
    if (entry.cpu_ns < 0.0) {
      json.key("cpu_ns").null();
    } else {
      json.key("cpu_ns").value(entry.cpu_ns);
    }
    json.key("counters").begin_object();
    for (const auto& [name, value] : entry.counters) {
      json.key(name).value(value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

/// Per-binary collection of bench entries plus the --json-out flag. The
/// figure binaries call init() first and `return finish()` last; entries
/// accumulate from print_sweep() in between. Table output on stdout is
/// unchanged whether or not --json-out is given.
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport report;
    return report;
  }

  /// Parses {--json-out FILE}; any other argument is a usage error
  /// reported by finish() (exit 2, distinct from the tool's exit codes).
  void init(int argc, const char* const* argv, std::string binary) {
    binary_ = std::move(binary);
    start_ns_ = obs::now_ns();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json-out" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else {
        usage_error_ = "unknown argument '" + arg +
                       "' (figure benches accept only --json-out FILE)";
        return;
      }
    }
  }

  void record(BenchEntry entry) { entries_.push_back(std::move(entry)); }

  /// Appends the whole-binary "total" entry, writes the JSON document
  /// when --json-out was given, and returns the process exit code.
  int finish() {
    if (!usage_error_.empty()) {
      std::cerr << binary_ << ": " << usage_error_ << "\n";
      return 2;
    }
    BenchEntry total;
    total.name = "total";
    total.real_ns = static_cast<double>(obs::now_ns() - start_ns_);
    const core::SolveCache::Stats stats = shared_cache().stats();
    total.counters.emplace_back("cache_hits",
                                static_cast<double>(stats.hits));
    total.counters.emplace_back("cache_misses",
                                static_cast<double>(stats.misses));
    entries_.push_back(std::move(total));
    if (json_path_.empty()) return 0;
    std::ofstream out(json_path_);
    if (!out) {
      std::cerr << binary_ << ": cannot write '" << json_path_ << "'\n";
      return 1;
    }
    write_bench_json(out, binary_, entries_);
    return out ? 0 : 1;
  }

 private:
  BenchReport() = default;

  std::string binary_;
  std::string json_path_;
  std::string usage_error_;
  std::uint64_t start_ns_ = 0;
  std::vector<BenchEntry> entries_;
};

/// Figure-binary entry points: call init() first thing in main() and
/// `return finish();` last.
inline void init(int argc, const char* const* argv,
                 const std::string& binary) {
  BenchReport::instance().init(argc, argv, binary);
}

inline int finish() { return BenchReport::instance().finish(); }

/// One sweep table: evaluates every configuration on the SystemConfigs
/// produced by `make_config(x)` and renders events/PB-year (with a '*'
/// marking values that meet the target). Also records one BenchEntry
/// (wall clock + cells + solve-cache hit/miss deltas) for --json-out.
inline void print_sweep(
    const std::string& x_label, const std::vector<double>& xs,
    const std::function<std::string(double)>& format_x,
    const std::function<core::SystemConfig(double)>& make_config,
    const std::vector<core::Configuration>& configurations) {
  const core::SolveCache::Stats before = shared_cache().stats();
  const std::uint64_t start = obs::now_ns();
  const engine::ResultSet results = engine::evaluate(
      engine::custom_sweep(x_label, xs, make_config, configurations,
                           core::Method::kExactChain, format_x),
      eval_options());
  const std::uint64_t elapsed = obs::now_ns() - start;
  const core::SolveCache::Stats after = shared_cache().stats();
  BenchEntry entry;
  entry.name = "sweep:" + x_label;
  entry.real_ns = static_cast<double>(elapsed);
  entry.counters.emplace_back(
      "cells", static_cast<double>(xs.size() * configurations.size()));
  entry.counters.emplace_back(
      "cache_hits", static_cast<double>(after.hits - before.hits));
  entry.counters.emplace_back(
      "cache_misses", static_cast<double>(after.misses - before.misses));
  BenchReport::instance().record(std::move(entry));
  engine::events_table(results, &kTarget).print(std::cout);
  std::cout << "(* = meets target)\n";
}

}  // namespace nsrel::bench
