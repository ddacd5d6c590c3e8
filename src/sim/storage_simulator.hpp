// System-level discrete-event simulators for both configuration families.
//
// These simulate the storage system's failure/repair dynamics directly —
// a failure stack, competing exponential failure and repair clocks, LIFO
// repair, hard-error sampling when the system goes critical — without ever
// constructing a Markov chain. They therefore validate the recursive chain
// construction itself (not just its numerical solve): if the chain encodes
// the wrong transition structure, the simulator and the solver disagree.
//
// Each simulator states its transition logic once, as the next-event
// distribution of sim/regenerative.hpp (start() and outcomes()). A direct
// trajectory (sample_time_to_data_loss) and the regenerative
// importance-sampling estimate (estimate()) both draw from that list.
// At baseline parameters a direct trajectory contains ~1e8
// failure/repair cycles; estimate() needs only a few cycles per trial, so
// it runs at the paper's own rates as well as at accelerated ones.
//
// estimate() routes through the shared parallel engine (sim/parallel.hpp):
// results are bit-identical for a fixed seed regardless of options.jobs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "models/internal_raid.hpp"
#include "models/no_internal_raid.hpp"
#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "sim/regenerative.hpp"
#include "util/rng.hpp"

namespace nsrel::sim {

/// The no-internal-RAID failure stack: bit i of `drives` is set when the
/// i-th outstanding failure (oldest first) is a drive failure.
struct NirState {
  std::uint32_t drives = 0;
  int depth = 0;
  bool operator==(const NirState&) const = default;
};

/// No-internal-RAID system: distinct node and drive failures, LIFO repair
/// at mu_N / mu_d, h_alpha hard-error sampling on the k-th failure.
class NirStorageSimulator {
 public:
  explicit NirStorageSimulator(const models::NoInternalRaidParams& params,
                               std::uint64_t seed = 0x5EEDULL);

  /// One trajectory from the simulator's own stream (serial use).
  [[nodiscard]] double sample_time_to_data_loss();
  /// One trajectory from a caller-supplied stream (thread-safe: shared
  /// state is read-only).
  [[nodiscard]] double sample_time_to_data_loss(Xoshiro256& rng) const;

  /// Regenerative importance-sampling estimate (sim/regenerative.hpp).
  [[nodiscard]] MttdlEstimate estimate(
      int trials, const ParallelOptions& options = {}) const;

  // Next-event distribution (sim/regenerative.hpp).
  using State = NirState;
  [[nodiscard]] State start() const { return {}; }
  [[nodiscard]] std::span<const Outcome<State>> outcomes(
      const State& state, OutcomeBuffer<State>& scratch) const;

 private:
  models::NoInternalRaidParams params_;
  /// Saturated h_alpha of a critical word, indexed by its drive failures
  /// (h_alpha depends on the word only through that count).
  std::vector<double> critical_h_;
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

/// Internal-RAID system: node failures and array failures combine into one
/// failure stream; sector errors strike at rate (N-k) * k_t * lambda_S
/// while the system is critical.
class IrStorageSimulator {
 public:
  explicit IrStorageSimulator(const models::InternalRaidParams& params,
                              std::uint64_t seed = 0x5EEDULL);

  [[nodiscard]] double sample_time_to_data_loss();
  [[nodiscard]] double sample_time_to_data_loss(Xoshiro256& rng) const;

  /// Regenerative importance-sampling estimate (sim/regenerative.hpp).
  [[nodiscard]] MttdlEstimate estimate(
      int trials, const ParallelOptions& options = {}) const;

  // Next-event distribution: the state is the number of failed nodes.
  using State = int;
  [[nodiscard]] State start() const { return 0; }
  [[nodiscard]] std::span<const Outcome<State>> outcomes(
      const State& failed, OutcomeBuffer<State>& scratch) const;

 private:
  models::InternalRaidParams params_;
  double critical_factor_;
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

}  // namespace nsrel::sim
