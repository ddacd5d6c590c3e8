// --json-out support for the google-benchmark perf binaries: a reporter
// that mirrors every run into nsrel-bench-v1 entries while delegating the
// display to google-benchmark's own reporter for --benchmark_format
// (console, json or csv), plus the shared main() body. The display is
// unchanged whether or not --json-out is given.
//
// --events FILE additionally arms the flight recorder around the runs
// and writes the journal as nsrel-events-v1 NDJSON — the CI
// repair-soak artifact (`perf_repair --events ...`) comes from here.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/journal.hpp"
#include "report/events_doc.hpp"

namespace nsrel::bench {

/// Reporter that captures each Run and forwards every call to the
/// display reporter --benchmark_format selects. Per-iteration real/cpu
/// time is accumulated_time/iterations in seconds, converted to ns for
/// the schema.
class CaptureReporter : public benchmark::BenchmarkReporter {
 public:
  /// `display` is owned by google-benchmark and outlives the runs.
  explicit CaptureReporter(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      BenchEntry entry;
      entry.name = run.benchmark_name();
      entry.iterations = static_cast<std::uint64_t>(run.iterations);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      entry.real_ns = run.real_accumulated_time / iters * 1e9;
      entry.cpu_ns = run.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : run.counters) {
        entry.counters.emplace_back(name,
                                    static_cast<double>(counter.value));
      }
      entries_.push_back(std::move(entry));
    }
    display_->ReportRuns(reports);
  }

  void Finalize() override { display_->Finalize(); }

  [[nodiscard]] const std::vector<BenchEntry>& entries() const {
    return entries_;
  }

 private:
  benchmark::BenchmarkReporter* display_;
  std::vector<BenchEntry> entries_;
};

/// Shared main() of the perf binaries: strips --json-out FILE and
/// --events FILE, hands the rest to google-benchmark, and writes the
/// nsrel-bench-v1 document (and the nsrel-events-v1 journal) after the
/// runs.
inline int perf_main(int argc, char** argv, const std::string& binary) {
  std::string json_path;
  std::string events_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--events" && i + 1 < argc) {
      events_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  if (!events_path.empty()) obs::Journal::instance().begin();
  CaptureReporter reporter(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!events_path.empty()) {
    obs::Journal::instance().disable();
    if (!report::write_events_file(events_path)) {
      std::cerr << binary << ": cannot write '" << events_path << "'\n";
      return 1;
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << binary << ": cannot write '" << json_path << "'\n";
      return 1;
    }
    write_bench_json(out, binary, reporter.entries());
    if (!out) return 1;
  }
  return 0;
}

}  // namespace nsrel::bench
