// Ablation (validation): Monte-Carlo storage simulation vs the analytic
// Markov solutions. The first table uses accelerated configurations
// across both families and every fault tolerance, with a third column
// that triangulates with a simulation of the constructed chain itself.
// The second runs every paper configuration at SystemConfig::baseline()
// rates — the paper's own regime, MTTDL 1e6 h and up — through the
// regenerative importance-sampling estimator.
//
// Every estimate runs adaptively to a fixed 95% CI half-width. Trials run
// through the shared parallel engine: set NSREL_JOBS to choose the worker
// count (default: all hardware threads). The numbers in the tables are
// bit-identical at any job count — only the wall clock moves.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "core/analyzer.hpp"
#include "core/configuration.hpp"
#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/storage_simulator.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace nsrel;
  bench::init(argc, argv, "ablation_sim_vs_model");
  bench::preamble("Ablation", "Monte-Carlo simulation vs analytic models");
  const int wave = 1024;
  // +-3%: no wider than the 4000 direct trials per cell this table once
  // ran (1.96 / sqrt(4000) for an exponential-like time to loss).
  const double accelerated_target = 0.03;
  const double baseline_target = 0.05;

  sim::ParallelOptions options;
  options.jobs = 0;  // all hardware threads
  if (const char* jobs_env = std::getenv("NSREL_JOBS")) {
    options.jobs = std::atoi(jobs_env);
  }
  options.max_trials = 1 << 22;
  const int resolved_jobs =
      options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
  const auto percent = [](const sim::MttdlEstimate& e) {
    return fixed(100.0 * e.relative_half_width(), 1) + "%";
  };

  report::Table table({"model", "analytic (h)", "storage sim (h)", "+-",
                       "chain sim (h)", "+-", "sim/analytic", "in 95% CI"});
  options.ci_target = accelerated_target;
  const auto started = std::chrono::steady_clock::now();
  for (int k = 1; k <= 3; ++k) {
    models::NoInternalRaidParams p;
    p.node_set_size = 8;
    p.redundancy_set_size = 4;
    p.fault_tolerance = k;
    p.drives_per_node = 3;
    p.node_failure = PerHour(0.002);
    p.drive_failure = PerHour(0.003);
    p.node_rebuild = PerHour(1.0);
    p.drive_rebuild = PerHour(3.0);
    p.capacity = gigabytes(300.0);
    p.her_per_byte = 8e-14;

    const models::NoInternalRaidModel model(p);
    const double analytic = model.mttdl_exact().value();
    sim::NirStorageSimulator storage(p, 11 + static_cast<std::uint64_t>(k));
    const auto storage_estimate = storage.estimate(wave, options);
    const auto chain = model.chain();
    sim::ChainSimulator chain_sim(chain, 21 + static_cast<std::uint64_t>(k));
    const auto chain_estimate = chain_sim.estimate(
        wave, models::NoInternalRaidModel::root_state(), options);
    table.add_row({"NIR FT" + std::to_string(k), sci(analytic),
                   sci(storage_estimate.mean_hours), percent(storage_estimate),
                   sci(chain_estimate.mean_hours), percent(chain_estimate),
                   fixed(storage_estimate.mean_hours / analytic, 3),
                   storage_estimate.covers(analytic) ? "yes" : "no"});
  }

  for (int t = 1; t <= 3; ++t) {
    models::InternalRaidParams p;
    p.node_set_size = 8;
    p.redundancy_set_size = 4;
    p.fault_tolerance = t;
    p.node_failure = PerHour(0.004);
    p.node_rebuild = PerHour(1.0);
    p.array_failure = PerHour(0.001);
    p.sector_error = PerHour(0.0005);

    const models::InternalRaidNodeModel model(p);
    const double analytic = model.mttdl_exact().value();
    sim::IrStorageSimulator storage(p, 31 + static_cast<std::uint64_t>(t));
    const auto storage_estimate = storage.estimate(wave, options);
    const auto chain = model.chain();
    sim::ChainSimulator chain_sim(chain, 41 + static_cast<std::uint64_t>(t));
    const auto chain_estimate = chain_sim.estimate(wave, 0, options);
    table.add_row({"IR FT" + std::to_string(t), sci(analytic),
                   sci(storage_estimate.mean_hours), percent(storage_estimate),
                   sci(chain_estimate.mean_hours), percent(chain_estimate),
                   fixed(storage_estimate.mean_hours / analytic, 3),
                   storage_estimate.covers(analytic) ? "yes" : "no"});
  }

  // The paper's regime: Analyzer::simulate_mttdl on the baseline system.
  report::Table paper({"configuration", "analytic (h)", "simulated (h)", "+-",
                       "trials", "sim/analytic", "z"});
  options.ci_target = baseline_target;
  const core::Analyzer analyzer(core::SystemConfig::baseline());
  std::uint64_t seed = 51;
  for (const core::Configuration& c : core::all_configurations()) {
    const double analytic = analyzer.mttdl(c).value();
    const sim::MttdlEstimate e =
        analyzer.simulate_mttdl(c, wave, seed++, options);
    paper.add_row({core::name(c), sci(analytic), sci(e.mean_hours), percent(e),
                   std::to_string(e.trials), fixed(e.mean_hours / analytic, 3),
                   fixed((e.mean_hours - analytic) / e.stderr_hours, 2)});
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - started);

  std::cout << "Accelerated rates, each estimate to +-"
            << fixed(100.0 * accelerated_target, 0) << "% (" << wave
            << "-trial waves):\n";
  table.print(std::cout);
  std::cout << "\nPaper configurations at baseline rates, each to +-"
            << fixed(100.0 * baseline_target, 0) << "%:\n";
  paper.print(std::cout);
  std::cout << "(~5% of estimates may fall outside their 95% CI by "
            << "construction; z = (sim - analytic) / stderr)\n"
            << "(jobs " << resolved_jobs << ", " << fixed(elapsed.count(), 3)
            << " s wall; results are jobs-invariant)\n";
  return bench::finish();
}
