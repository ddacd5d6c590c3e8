// Simulation vs model: runs the Monte-Carlo storage simulator against the
// analytic Markov solutions on an accelerated configuration and prints the
// agreement — the validation experiment behind ablation_sim_vs_model.
//
// Usage: sim_vs_model [trials]
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "report/table.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/storage_simulator.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace nsrel;

  const int trials = argc > 1 ? std::atoi(argv[1]) : 5000;

  std::cout << "Monte-Carlo validation on an accelerated 8-node system\n"
            << "(failure rates x1000 so each trajectory is tractable; the\n"
            << " chains are exact at any rate ratio)\n";

  report::Table table({"model", "analytic MTTDL (h)", "simulated (h)",
                       "95% CI", "within CI"});

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
    sim::NirStorageSimulator simulator(p, 42 + static_cast<std::uint64_t>(k));
    const sim::MttdlEstimate estimate = simulator.estimate(trials);
    table.add_row({"no internal RAID, FT" + std::to_string(k), sci(analytic),
                   sci(estimate.mean_hours),
                   sci_interval(estimate.ci95_low_hours,
                                estimate.ci95_high_hours),
                   estimate.covers(analytic) ? "yes" : "no"});
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
    sim::IrStorageSimulator simulator(p, 142 + static_cast<std::uint64_t>(t));
    const sim::MttdlEstimate estimate = simulator.estimate(trials);
    table.add_row({"internal RAID, FT" + std::to_string(t), sci(analytic),
                   sci(estimate.mean_hours),
                   sci_interval(estimate.ci95_low_hours,
                                estimate.ci95_high_hours),
                   estimate.covers(analytic) ? "yes" : "no"});
  }

  table.print(std::cout);
  std::cout << "\n(a ~5% miss rate on 'within CI' is expected at 95%\n"
            << " confidence across 6 independent comparisons)\n";
  return 0;
}
