// The library's top-level entry point: evaluate a redundancy configuration
// on a system description and report MTTDL and the paper's headline metric,
// expected data-loss events per PB-year.
#pragma once

#include <cstdint>
#include <string>

#include "core/configuration.hpp"
#include "core/solve_cache.hpp"
#include "core/system_config.hpp"
#include "ctmc/chain.hpp"
#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "rebuild/planner.hpp"
#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace nsrel::core {

/// Which solution path to use. Exact builds and numerically solves the
/// full Markov chain; ClosedForm evaluates the paper's approximations.
/// They agree to a few percent in the repair-dominant regime (tested).
enum class Method : unsigned char { kExactChain, kClosedForm };

/// Parses the canonical method names shared by the CLI's --method flag
/// and scenario files' [output] method key: "exact" | "closed".
/// Throws ContractViolation on anything else.
[[nodiscard]] Method parse_method(const std::string& name);

/// The canonical name parse_method accepts: "exact" / "closed".
[[nodiscard]] std::string method_name(Method method);

struct AnalysisResult {
  Configuration configuration;
  Hours mttdl{0.0};
  double events_per_system_year = 0.0;  ///< 1 / MTTDL(years), one node set
  double events_per_pb_year = 0.0;      ///< normalized by logical capacity
  Bytes logical_capacity{0.0};          ///< user data per node set
  rebuild::RebuildRates rebuild;        ///< mu_N / mu_d / re-stripe actually used
  PerHour array_failure_rate{0.0};      ///< lambda_D (internal-RAID configs)
  PerHour sector_error_rate{0.0};       ///< lambda_S (internal-RAID configs)
};

class Analyzer {
 public:
  /// Precondition: check(config) passes.
  explicit Analyzer(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Full analysis of one configuration. With a non-null `cache`, the
  /// chain solve (the expensive step) is memoized under a key built from
  /// the exact model parameters — a hit returns bit-identical results to
  /// a fresh solve, so caching never changes output.
  [[nodiscard]] AnalysisResult analyze(
      const Configuration& configuration, Method method = Method::kExactChain,
      SolveCache* cache = nullptr) const;

  /// Non-throwing form of analyze(): every failure mode comes back as a
  /// typed Error instead of an exception — an out-of-range fault
  /// tolerance as invalid_parameter, numerical failures in the
  /// chain solve with their original code (singular_generator,
  /// ill_conditioned, non_finite_result), violated internal contracts as
  /// contract_violation, and non-finite derived metrics (MTTDL, events
  /// per PB-year) as non_finite_result. Failed solves are cached like
  /// successful ones, so a cache hit replays the error bit-identically.
  [[nodiscard]] Expected<AnalysisResult> try_analyze(
      const Configuration& configuration, Method method = Method::kExactChain,
      SolveCache* cache = nullptr) const;

  /// Shortcuts.
  [[nodiscard]] Hours mttdl(const Configuration& configuration,
                            Method method = Method::kExactChain) const;
  [[nodiscard]] double events_per_pb_year(
      const Configuration& configuration,
      Method method = Method::kExactChain) const;

  /// Fraction of raw capacity available for user data under this
  /// configuration: (R-t)/R across nodes times (d-m)/d inside them.
  [[nodiscard]] double code_rate(const Configuration& configuration) const;

  /// Logical (user data) capacity of one node set:
  /// N * d * C * utilization * code_rate.
  [[nodiscard]] Bytes logical_capacity(const Configuration& configuration) const;

  /// The rebuild planner for a given node fault tolerance (exposed for
  /// benches that decompose rebuild times).
  [[nodiscard]] rebuild::RebuildPlanner planner(int node_fault_tolerance) const;

  /// Markov-model parameters for a configuration, with rebuild rates from
  /// the planner — the exact inputs analyze() feeds the models, exposed so
  /// simulators and chain consumers stay in lock-step with the analysis.
  /// Preconditions: nir_params requires internal == kNone, ir_params the
  /// opposite.
  [[nodiscard]] models::NoInternalRaidParams nir_params(
      const Configuration& configuration) const;
  [[nodiscard]] models::InternalRaidParams ir_params(
      const Configuration& configuration) const;

  /// The configuration's Markov chain plus its healthy (initial) state.
  struct BuiltChain {
    ctmc::Chain chain;
    ctmc::StateId healthy = 0;
  };
  [[nodiscard]] BuiltChain build_chain(const Configuration& configuration) const;

  /// Non-throwing form of build_chain() for user-supplied configurations:
  /// a fault tolerance outside the models' domain comes back as the same
  /// typed invalid_parameter error try_analyze() reports.
  [[nodiscard]] Expected<BuiltChain> try_build_chain(
      const Configuration& configuration) const;

  /// Monte-Carlo MTTDL estimate from the family's storage simulator
  /// (regenerative importance sampling, sim/regenerative.hpp), routed
  /// through the parallel engine. Deterministic for a fixed (seed,
  /// trials, options.chunk_trials) at any options.jobs; tractable at the
  /// paper's baseline rates. Throws ErrorException (non_finite_result)
  /// when no trial saw a loss.
  [[nodiscard]] sim::MttdlEstimate simulate_mttdl(
      const Configuration& configuration, int trials,
      std::uint64_t seed = 0x5EEDULL,
      const sim::ParallelOptions& options = {}) const;

 private:
  SystemConfig config_;
};

/// A reliability goal in events per PB-year.
struct ReliabilityTarget {
  double events_per_pb_year = 2e-3;

  /// The paper's target: a field population of 100 one-PB systems sees
  /// less than one data-loss event in 5 years => 2e-3 events/PB-year.
  [[nodiscard]] static ReliabilityTarget paper() { return {2e-3}; }

  [[nodiscard]] bool met_by(double observed_events_per_pb_year) const {
    return observed_events_per_pb_year < events_per_pb_year;
  }
  [[nodiscard]] bool met_by(const AnalysisResult& result) const {
    return met_by(result.events_per_pb_year);
  }
};

}  // namespace nsrel::core
