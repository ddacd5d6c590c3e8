// mc_accel: Monte-Carlo MTTDL to a confidence target through
// Analyzer::simulate_mttdl, on no-internal-RAID FT3 and internal RAID 5
// FT3 at accelerated failure rates. One job is one adaptive estimate of
// each configuration (stopping at the first wave whose 95% CI half-width
// is within kCiTarget of the mean). A variance-reduction change moves
// the trials per job; a per-event change moves the time per trial.
#include <cmath>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "sim/storage_simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perf_e2e {

namespace core = nsrel::core;
namespace sim = nsrel::sim;

namespace {

constexpr double kCiTarget = 0.04;   // +-4% at 95%
constexpr int kChunkTrials = 256;
constexpr int kWaveTrials = 1024;    // the adaptive wave, 4 chunks
constexpr int kMaxTrials = 1 << 20;
/// Two-sided z for a 1e-5 false-alarm rate per configuration and run:
/// the pooled estimate of an unbiased simulator leaves this band about
/// once in 100,000 runs, so the check flags bias, not bad luck.
constexpr double kPooledZ = 4.417;

core::SystemConfig accelerated() {
  core::SystemConfig c = core::SystemConfig::baseline();
  c.node_mttf = nsrel::Hours(1e4);
  c.drive.mttf = nsrel::Hours(1e4);
  return c;
}

std::vector<core::Configuration> configurations() {
  return {{core::InternalScheme::kNone, 3}, {core::InternalScheme::kRaid5, 3}};
}

sim::ParallelOptions options(int jobs) {
  sim::ParallelOptions o;
  o.jobs = jobs;
  o.chunk_trials = kChunkTrials;
  o.ci_target = kCiTarget;
  o.max_trials = kMaxTrials;
  return o;
}

bool same_bits(const sim::MttdlEstimate& a, const sim::MttdlEstimate& b) {
  return a.mean_hours == b.mean_hours && a.stddev_hours == b.stddev_hours &&
         a.ci95_low_hours == b.ci95_low_hours &&
         a.ci95_high_hours == b.ci95_high_hours && a.trials == b.trials;
}

}  // namespace

RunResult run_mc_accel(const RunConfig& config) {
  RunResult result;
  const std::vector<core::Configuration> configs = configurations();
  const std::size_t n_configs = configs.size();

  // Set-up, repeated: the analytic reference MTTDL of each configuration
  // and a one-wave warm estimate.
  std::vector<double> setup_s;
  std::vector<double> analytic(n_configs, 0.0);
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    const core::Analyzer analyzer(accelerated());
    for (std::size_t c = 0; c < n_configs; ++c) {
      analytic[c] = analyzer.analyze(configs[c]).mttdl.value();
      sim::ParallelOptions warm = options(config.threads);
      warm.ci_target = 0.0;
      (void)analyzer.simulate_mttdl(configs[c], kWaveTrials, config.seed, warm);
    }
    setup_s.push_back(now_s() - t0);
  }
  const core::Analyzer analyzer(accelerated());

  // Job j, configuration c draws from seed stream (seed, j * C + c).
  const auto job_seed = [&](int job, std::size_t c) {
    return nsrel::stream_seed(config.seed,
                              static_cast<std::uint64_t>(job) * n_configs + c);
  };
  std::vector<sim::MomentAccumulator> pooled(n_configs);
  std::vector<std::vector<sim::MttdlEstimate>> estimates(n_configs);
  std::vector<double> sim_s;  // simulate_mttdl wall per job
  int next_job = 0;  // every job, warm-up included, gets fresh streams
  const auto job = [&](int index) {
    const int j = next_job++;
    double in_sim = 0.0;
    for (std::size_t c = 0; c < n_configs; ++c) {
      const double t0 = now_s();
      const sim::MttdlEstimate e = analyzer.simulate_mttdl(
          configs[c], kWaveTrials, job_seed(j, c), options(config.threads));
      in_sim += now_s() - t0;
      estimates[c].push_back(e);
      ++result.attempted;
      if (!(e.relative_half_width() <= kCiTarget)) ++result.failed;
      sim::MomentAccumulator acc;
      acc.count = e.trials;
      acc.mean = e.mean_hours;
      acc.m2 = e.stddev_hours * e.stddev_hours * (e.trials - 1.0);
      pooled[c] = sim::MomentAccumulator::merge(pooled[c], acc);
    }
    if (index >= 0) sim_s.push_back(in_sim);
  };

  std::vector<double> plain;
  std::vector<double> traced;
  TraceCapture capture;
  if (!config.trace) {
    plain = run_closed_loop(config.seconds, 5, job);
    record_end_to_end(result, plain, setup_s,
                      "one estimate of each configuration to +-" +
                          num(100 * kCiTarget) + "%");
  } else {
    plain = run_closed_loop(config.seconds / 2, 3, job);
    sim_s.clear();
    begin_trace_capture();
    traced = run_closed_loop(config.seconds / 2, 3, job, false);
    capture = end_trace_capture(result, config.threads, sum(sim_s));
  }

  // Checks. Estimates are bit-identical at 1 thread (job 0 re-run), each
  // one reached the CI target, and the pooled estimate of every
  // configuration agrees with the analytic chain within kPooledZ errors.
  double one_thread_s = 0.0;
  double many_thread_s = 0.0;
  for (std::size_t c = 0; c < n_configs; ++c) {
    double t0 = now_s();
    const sim::MttdlEstimate one =
        analyzer.simulate_mttdl(configs[c], kWaveTrials, job_seed(0, c),
                                options(1));
    one_thread_s += now_s() - t0;
    t0 = now_s();
    const sim::MttdlEstimate many =
        analyzer.simulate_mttdl(configs[c], kWaveTrials, job_seed(0, c),
                                options(config.threads));
    many_thread_s += now_s() - t0;
    result.check(same_bits(one, many) && same_bits(one, estimates[c].front()),
                 core::name(configs[c]) +
                     ": estimate differs between 1 and N threads");
  }
  result.check(result.failed == 0, "an estimate missed the CI target");

  double worst_dev = 0.0;
  double worst_ci = 0.0;
  std::size_t covered = 0;
  std::size_t total = 0;
  double trials_per_job = 0.0;
  for (std::size_t c = 0; c < n_configs; ++c) {
    const sim::MttdlEstimate p = sim::make_estimate(pooled[c]);
    const double dev = p.mean_hours / analytic[c] - 1.0;
    const double z = std::abs(p.mean_hours - analytic[c]) / p.stderr_hours;
    result.check(z <= kPooledZ,
                 core::name(configs[c]) + ": pooled estimate " +
                     num(p.mean_hours) + " h is " + num(z) +
                     " standard errors from the analytic " +
                     num(analytic[c]) + " h");
    if (std::abs(dev) > std::abs(worst_dev)) worst_dev = dev;
    for (const sim::MttdlEstimate& e : estimates[c]) {
      worst_ci = std::max(worst_ci, e.relative_half_width());
      covered += e.covers(analytic[c]) ? 1 : 0;
      ++total;
      trials_per_job += e.trials;
    }
    result.note("model: " + core::name(configs[c]) + " analytic " +
                num(analytic[c]) + " h, pooled sim " + num(p.mean_hours) +
                " h over " + std::to_string(p.trials) +
                " trials (sim/analytic " +
                num(1.0 + dev) + ", z " + num(z) + ")");
  }
  trials_per_job /= static_cast<double>(estimates[0].size());
  result.note("inputs: node and drive MTTF 1e4 h, FT3 NIR + FT3 IR-RAID5, "
              "CI target " + num(kCiTarget) + ", chunk " +
              std::to_string(kChunkTrials) + ", wave " +
              std::to_string(kWaveTrials) + " trials, seeds from the run seed");
  result.note("estimates: " + std::to_string(total) + ", " +
              std::to_string(covered) +
              " with the analytic MTTDL inside their own 95% CI; " +
              num(trials_per_job) + " trials per job");
  if (!config.trace) return result;

  auto& m = result.metrics;
  m["sim.trials_to_ci"] = trials_per_job;
  m["sim.ci_rel"] = worst_ci;
  m["sim.model_dev"] = worst_dev;
  m["sim.parallel_eff"] = one_thread_s / (config.threads * many_thread_s);
  const std::vector<double> chunks = capture.spans.durations_ms("chunk");
  if (!chunks.empty()) {
    m["sim.chunk_p50_ms"] = median(chunks);
    const Tail t = tail(chunks);
    m["sim.chunk_tail_ms"] = t.value;
    result.note("chunks: " + std::to_string(t.samples) + ", tail p" +
                num(t.percentile) + " " + num(t.value) + " ms");
  }
  result.check(!chunks.empty(), "no chunk spans recorded");

  // Per-trial cost, from direct sampler calls on this thread.
  {
    nsrel::Xoshiro256 rng(config.seed);
    const sim::NirStorageSimulator nir(analyzer.nir_params(configs[0]));
    const sim::IrStorageSimulator ir(analyzer.ir_params(configs[1]));
    constexpr int kDirect = 500;
    double sink = 0.0;
    const double t0 = now_s();
    for (int i = 0; i < kDirect; ++i) {
      sink += nir.sample_time_to_data_loss(rng);
      sink += ir.sample_time_to_data_loss(rng);
    }
    m["sim.trial_us"] = 1e6 * (now_s() - t0) / (2.0 * kDirect);
    result.check(sink > 0.0, "direct trials returned no time");
  }
  for (const core::Configuration& c : configs) {
    probe_chain(analyzer, c, 1.0, 3, result);
  }
  // The traced jobs' one layer call: simulate_mttdl, core into sim.
  record_trace(result, plain, traced, {sum(sim_s)});
  return result;
}

}  // namespace perf_e2e
