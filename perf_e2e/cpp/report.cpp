#include "report.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "report/json_parse.hpp"

namespace perf_e2e {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"job_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"engine.evaluate_ms", "ms"},
      {"engine.render_ms", "ms"},
      {"core.analyze_ms", "ms"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.cache_lookups", "count"},
      {"models.chain_build_ms", "ms"},
      {"models.chain_states", "count"},
      {"models.chain_transitions", "count"},
      {"ctmc.solve_ms", "ms"},
      {"ctmc.elimination_ms", "ms"},
      {"rebuild.rates_us", "us"},
      {"util.pool_busy_frac", "ratio"},
      {"util.queue_delay_ms", "ms"},
      {"sim.trials_to_ci", "count"},
      {"sim.trial_us", "us"},
      {"sim.chunk_p50_ms", "ms"},
      {"sim.chunk_tail_ms", "ms"},
      {"sim.parallel_eff", "ratio"},
      {"sim.ci_rel", "ratio"},
      {"sim.model_dev", "ratio"},
      {"repair.plan_ms", "ms"},
      {"repair.run_self_ms", "ms"},
      {"repair.barrier_ms", "ms"},
      {"repair.task_ms", "ms"},
      {"repair.shards_repaired", "count"},
      {"repair.replans", "count"},
      {"repair.retries", "count"},
      {"repair.bytes_reconstructed", "bytes"},
      {"repair.barriers", "count"},
      {"brick.write_ms", "ms"},
      {"brick.read_range_healthy_us", "us"},
      {"brick.read_range_degraded_us", "us"},
      {"brick.read_amp", "ratio"},
      {"brick.degraded_read_frac", "ratio"},
      {"erasure.encode_us", "us"},
      {"erasure.decode_us", "us"},
      {"workload.fg_read_p50_us", "us"},
      {"workload.fg_read_tail_us", "us"},
      {"workload.fg_reads", "count"},
      {"bench.fail_frac", "ratio"},
      {"bench.jobs", "count"},
      {"bench.job_tail_ms", "ms"},
      {"bench.job_tail_pct", "percentile"},
      {"trace.job_ms", "ms"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.untraced_job_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

std::vector<double> to_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(1e3 * s);
  return ms;
}

}  // namespace

void record_end_to_end(RunResult& result, const std::vector<double>& job_s,
                       const std::vector<double>& setup_s,
                       const std::string& job_label) {
  const std::vector<double> job_ms = to_ms(job_s);
  const Tail t = tail(job_ms);
  result.metrics["setup_s"] = median(setup_s);
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.metrics["job_ms"] = median(job_ms);
  std::ostringstream line;
  line << "job = " << job_label << ": " << job_ms.size() << " jobs, p50 "
       << num(median(job_ms)) << " ms, tail p" << num(t.percentile) << " "
       << num(t.value) << " ms (" << t.beyond << " of " << t.samples
       << " beyond); set-up median of " << setup_s.size() << ": "
       << num(median(setup_s)) << " s";
  result.note(line.str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> run_closed_loop(double seconds, int min_jobs,
                                    const std::function<void(int)>& job,
                                    bool warm_up) {
  return run_self_timed_loop(
      seconds, min_jobs,
      [&job](int i) {
        const double t0 = now_s();
        job(i);
        return now_s() - t0;
      },
      warm_up);
}

std::vector<double> run_self_timed_loop(
    double seconds, int min_jobs, const std::function<double(int)>& job,
    bool warm_up) {
  int warm_index = -1;
  for (const double warm = now_s();
       warm_up && now_s() - warm < kWarmSeconds;) {
    (void)job(warm_index--);
  }
  std::vector<double> times;
  const double start = now_s();
  for (int i = 0;; ++i) {
    times.push_back(job(i));
    if (now_s() - start >= seconds && i + 1 >= min_jobs) break;
  }
  return times;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  utsname name{};
  if (uname(&name) == 0) return name.machine;
  return "unknown";
}

}  // namespace

std::vector<std::string> identity_lines(const RunConfig& config) {
  const nsrel::obs::BuildInfo& build = nsrel::obs::build_info();
  std::vector<std::string> lines;
  lines.push_back("host: " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  " hardware threads, cpu \"" + cpu_model() + "\", " +
                  std::to_string(config.threads) + " worker threads used");
  lines.push_back(std::string("build: nsrel ") + build.semver + ", " +
                  build.compiler + ", " + build.build_type + ", git " +
                  build.git_sha + ", source digest " +
                  (config.source_digest.empty() ? "unknown"
                                                : config.source_digest));
  return lines;
}

bool SpanTotals::collect() {
  auto& recorder = nsrel::obs::TraceRecorder::instance();
  recorder.disable();
  std::ostringstream out;
  recorder.write(out);
  recorder.clear();
  durations_ms_.clear();
  const auto doc = nsrel::report::parse_json(out.str());
  if (!doc.has_value() || !doc.value().is_object()) return false;
  const nsrel::report::JsonValue* events = doc.value().find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  for (const nsrel::report::JsonValue& event : events->items) {
    const nsrel::report::JsonValue* name = event.find("name");
    const nsrel::report::JsonValue* dur = event.find("dur");
    if (name == nullptr || dur == nullptr || !dur->is_number()) return false;
    durations_ms_[name->text].push_back(dur->number / 1e3);  // us -> ms
  }
  return true;
}

double SpanTotals::total_ms(const std::string& name) const {
  return sum(durations_ms(name));
}

std::vector<double> SpanTotals::durations_ms(const std::string& name) const {
  const auto it = durations_ms_.find(name);
  return it == durations_ms_.end() ? std::vector<double>{} : it->second;
}

void begin_trace_capture() {
  auto& registry = nsrel::obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  nsrel::obs::TraceRecorder::instance().begin();
}

TraceCapture end_trace_capture(RunResult& result, int threads,
                               double pool_wall_s) {
  namespace probe = nsrel::obs::probe;
  TraceCapture capture;
  result.check(capture.spans.collect(), "trace document did not parse");
  auto& registry = nsrel::obs::Registry::instance();
  registry.set_enabled(false);
  const auto snapshot = registry.snapshot();
  registry.reset();
  const std::string prefix = probe::kThreadPoolWorkerPrefix;
  const std::string suffix = probe::kThreadPoolWorkerBusySuffix;
  double busy_ns = 0.0;
  for (const auto& row : snapshot.counters) {
    if (row.name.size() > prefix.size() + suffix.size() &&
        row.name.compare(0, prefix.size(), prefix) == 0 &&
        row.name.compare(row.name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
      busy_ns += static_cast<double>(row.value);
    }
  }
  if (pool_wall_s > 0.0) {
    capture.pool.busy_frac = busy_ns / 1e9 / (pool_wall_s * threads);
  }
  for (const auto& row : snapshot.histograms) {
    if (row.name == probe::kThreadPoolQueueDelayNs) {
      capture.pool.queue_delay_ms = row.mean() / 1e6;
    }
  }
  result.metrics["util.pool_busy_frac"] = capture.pool.busy_frac;
  result.metrics["util.queue_delay_ms"] = capture.pool.queue_delay_ms;
  return capture;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void record_trace(RunResult& result, const std::vector<double>& plain_s,
                  const std::vector<double>& traced_s,
                  const std::vector<double>& layer_s) {
  auto& m = result.metrics;
  const double traced_total = sum(traced_s);
  m["bench.fail_frac"] = fail_frac(result.failed, result.attempted);
  m["trace.job_ms"] = 1e3 * traced_total / static_cast<double>(traced_s.size());
  m["trace.untraced_job_ms"] = 1e3 * median(plain_s);
  m["trace.unattributed_frac"] = unattributed_frac(traced_total, layer_s);
  m["trace.overhead_frac"] = overhead_frac(median(traced_s), median(plain_s));
  const Tail t = tail(to_ms(plain_s));
  m["bench.jobs"] = static_cast<double>(t.samples);
  m["bench.job_tail_ms"] = t.value;
  m["bench.job_tail_pct"] = t.percentile;
  result.note("trace: unattributed " + num(m["trace.unattributed_frac"]) +
              " of " + num(m["trace.job_ms"]) + " ms per traced job (" +
              std::to_string(traced_s.size()) + " jobs); overhead " +
              num(m["trace.overhead_frac"]) + " of the untraced median " +
              num(m["trace.untraced_job_ms"]) + " ms (" +
              std::to_string(plain_s.size()) + " jobs)");
}

void print_result(std::ostream& out, const RunConfig& config,
                  const RunResult& result) {
  out << "perf_e2e: workload " << config.workload << ", seed " << config.seed
      << ", " << num(config.seconds) << " s, trace "
      << (config.trace ? 1 : 0) << "\n";
  for (const std::string& line : identity_lines(config)) out << line << "\n";
  for (const std::string& line : result.notes) out << line << "\n";
  for (const std::string& failure : result.check_failures) {
    out << "CHECK FAILED: " << failure << "\n";
  }
  const auto& specs = config.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    out << "  " << spec.name << " = " << num(value) << " " << spec.unit
        << "\n";
  }
  out << "{\"correct\": "
      << (result.check_failures.empty() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << "\"" << spec.name
        << "\": {\"value\": " << num(value) << ", \"unit\": \"" << spec.unit
        << "\"}";
    first = false;
  }
  out << "}}\n";
}

}  // namespace perf_e2e
