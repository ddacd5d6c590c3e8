// Ablation (modeling choice): single vs concurrent repair.
//
// The paper's chains repair one failure at a time (mu between consecutive
// states). A system whose survivors can rebuild several lost nodes at
// once repairs every outstanding failure concurrently. At baseline rates
// (mu >> N*lambda) the system almost never holds two failures, so the
// choice barely matters — but at stressed rates it does, and this bench
// quantifies both regimes.
#include "bench_common.hpp"

#include <string>

#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"

int main(int argc, char** argv) {
  using namespace nsrel;
  bench::init(argc, argv, "ablation_repair_policy");
  bench::preamble("Ablation", "single vs concurrent repair policy");

  const auto evaluate_nir = [](double stress, models::RepairPolicy policy,
                               int k) {
    models::NoInternalRaidParams p;
    p.node_set_size = 64;
    p.redundancy_set_size = 8;
    p.fault_tolerance = k;
    p.drives_per_node = 12;
    p.node_failure = PerHour(stress / 400'000.0);
    p.drive_failure = PerHour(stress / 300'000.0);
    p.node_rebuild = PerHour(0.19);
    p.drive_rebuild = PerHour(2.28);
    p.capacity = gigabytes(300.0);
    p.her_per_byte = 8e-14;
    p.repair_policy = policy;
    return models::NoInternalRaidModel(p).mttdl_exact().value();
  };

  report::Table table({"failure-rate stress", "FT", "single (h)",
                       "concurrent (h)", "concurrent/single"});
  for (const double stress : {1.0, 100.0, 1000.0}) {
    std::string stress_label = "x";  // appended: see sci_interval
    stress_label += fixed(stress, 0);
    for (const int k : {2, 3}) {
      const double single =
          evaluate_nir(stress, models::RepairPolicy::kSingle, k);
      const double concurrent =
          evaluate_nir(stress, models::RepairPolicy::kConcurrent, k);
      table.add_row({stress_label, std::to_string(k), sci(single),
                     sci(concurrent), fixed(concurrent / single, 3)});
    }
  }
  table.print(std::cout);
  std::cout
      << "(MTTDL scales with the PRODUCT of per-level repair rates, so the\n"
      << " paper's single-repair chains are conservative by up to t!\n"
      << " (~7% at FT2, ~4x at FT3 here): LIFO makes one slow node rebuild\n"
      << " block every fast drive rebuild queued behind it. The effect\n"
      << " compresses under extreme stress where failures, not repairs,\n"
      << " dominate the holding times.)\n";
  return bench::finish();
}
