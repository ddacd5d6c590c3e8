// perf_e2e: runs one workload of the nsrel end-to-end benchmark and
// prints its report, ending in the one-line JSON result.
//
//   perf_e2e --workload paper_figures|highft_sweep|mc_accel|repair_online
//            --seed N --seconds S --trace 0|1 --threads T
//            --reference-dir DIR [--source-digest HEX] [--write-reference]
//
// Exit codes: 0 = ran and every check passed, 1 = a check failed (the
// result line says "correct": false) or the run threw, 2 = usage error.
#include <cmath>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perf_e2e: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf_e2e::RunConfig config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--write-reference") {
        config.write_reference = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (arg == "--threads") {
        config.threads = std::stoi(value);
      } else if (arg == "--reference-dir") {
        config.reference_dir = value;
      } else if (arg == "--source-digest") {
        config.source_digest = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (config.threads < 1 || !(config.seconds > 0.0) ||
      config.reference_dir.empty()) {
    return usage("need --threads >= 1, --seconds > 0 and --reference-dir");
  }

  perf_e2e::RunResult result;
  try {
    if (config.workload == "paper_figures") {
      result = perf_e2e::run_paper_figures(config);
    } else if (config.workload == "highft_sweep") {
      result = perf_e2e::run_highft_sweep(config);
    } else if (config.workload == "mc_accel") {
      result = perf_e2e::run_mc_accel(config);
    } else if (config.workload == "repair_online") {
      result = perf_e2e::run_repair_online(config);
    } else {
      return usage("unknown workload '" + config.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_e2e: " << config.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }
  if (config.write_reference) {
    for (const std::string& f : result.check_failures) std::cerr << f << "\n";
    return result.check_failures.empty() ? 0 : 1;
  }
  if (result.attempted == 0) result.check(false, "no operation attempted");
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) result.check(false, name + " is not finite");
  }
  perf_e2e::print_result(std::cout, config, result);
  return result.check_failures.empty() ? 0 : 1;
}
