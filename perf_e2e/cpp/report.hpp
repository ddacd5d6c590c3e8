// What every workload shares: the run configuration, the result it hands
// back, the metric catalogue BENCHMARK.json mirrors, the host identity
// block, and the span totals read back from the library's own trace
// recorder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perf_e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;              ///< worker threads, <= the host's cores
  std::string reference_dir;    ///< perf_e2e/reference
  std::string source_digest;    ///< identifies the tree when git cannot
  bool write_reference = false;  ///< regenerate reference/ instead of running
};

/// One workload run: the four fields of the JSON result plus the
/// human-readable report lines printed above the result.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty when correct
  std::map<std::string, double> metrics;    ///< by catalogue name
  std::vector<std::string> notes;           ///< inputs, shares, tails

  /// Records a failed check once, however many jobs repeat it.
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(check_failures.begin(), check_failures.end(),
                         what) == check_failures.end()) {
      check_failures.push_back(what);
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), identical for every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics (--trace 1). A layer the workload does not run
/// reports 0: no work was done there.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Records the end-to-end metrics from the job times and the set-up times
/// (seconds), and notes the job tail with its percentile and count.
void record_end_to_end(RunResult& result, const std::vector<double>& job_s,
                       const std::vector<double>& setup_s,
                       const std::string& job_label);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Untimed jobs run before every measured loop: the first second or so
/// of a process runs measurably slower on a shared host.
inline constexpr double kWarmSeconds = 1.5;

/// Runs `job` untimed for kWarmSeconds, then until `seconds` of wall
/// time have passed and at least `min_jobs` jobs ran; returns each
/// measured job's wall time in seconds. Warm-up jobs get indices -1, -2,
/// ... and measured jobs 0, 1, ...: a job adds to its workload's
/// counters only when its index is >= 0. A traced phase passes
/// warm_up = false: it follows a warm untraced phase, and the library's
/// own probes cannot tell warm-up jobs apart.
[[nodiscard]] std::vector<double> run_closed_loop(
    double seconds, int min_jobs, const std::function<void(int)>& job,
    bool warm_up = true);

/// The same loop for a job that times itself (to leave per-job
/// preparation out) and returns its time in seconds.
[[nodiscard]] std::vector<double> run_self_timed_loop(
    double seconds, int min_jobs, const std::function<double(int)>& job,
    bool warm_up = true);

/// Host and build identity lines (cores, CPU model, threads, compiler,
/// build type, git SHA / source digest).
[[nodiscard]] std::vector<std::string> identity_lines(const RunConfig& config);

/// Span durations read back from the library's obs::TraceRecorder,
/// folded by span name.
class SpanTotals {
 public:
  /// Stops recording and folds every complete event. False when the
  /// recorder's document does not parse.
  [[nodiscard]] bool collect();

  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> durations_ms_;
};

/// Thread-pool probes from obs::Registry over a traced phase: busy share
/// of the workers across a wall-time base, and mean submit-to-start
/// delay.
struct PoolStats {
  double busy_frac = 0.0;
  double queue_delay_ms = 0.0;
};

/// What a traced phase recorded inside the library.
struct TraceCapture {
  SpanTotals spans;
  PoolStats pool;
};

/// Starts the traced phase: a fresh trace recording and metrics registry.
void begin_trace_capture();

/// Ends it. The pool's busy share is over `threads` workers across
/// `pool_wall_s`, the wall time during which the pool could work. A trace
/// document that does not parse is a failed check.
[[nodiscard]] TraceCapture end_trace_capture(RunResult& result, int threads,
                                             double pool_wall_s);

/// Fills bench.fail_frac, the untraced jobs' count and tail (bench.jobs,
/// bench.job_tail_*), and the trace.* metrics: job time traced (mean,
/// the base of the unattributed share) and untraced (median, the base of
/// the overhead), the share of traced wall time outside `layer_s` (the
/// summed seconds of each layer over the traced jobs) and the tracing
/// overhead. Notes both shares with their bases.
void record_trace(RunResult& result, const std::vector<double>& plain_s,
                  const std::vector<double>& traced_s,
                  const std::vector<double>& layer_s);

[[nodiscard]] double sum(const std::vector<double>& values);

/// Prints notes, identity and the one-line JSON result.
void print_result(std::ostream& out, const RunConfig& config,
                  const RunResult& result);

/// Formats a double with all its digits (shortest round trip).
[[nodiscard]] std::string num(double value);

}  // namespace perf_e2e
