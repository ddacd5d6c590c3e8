// Trajectory sampler for any absorbing ctmc::Chain: an independent
// numerical path to MTTDL that exercises none of the linear algebra, so it
// cross-validates the AbsorbingSolver. estimate() is the regenerative
// importance-sampling estimator of sim/regenerative.hpp, regenerating at
// the initial state; it routes through the shared parallel engine
// (sim/parallel.hpp) and is bit-identical for a fixed seed regardless of
// options.jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ctmc/chain.hpp"
#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "sim/regenerative.hpp"
#include "util/rng.hpp"

namespace nsrel::sim {

class ChainSimulator {
 public:
  /// Preconditions: chain.validate() passes. The chain must outlive the
  /// simulator.
  explicit ChainSimulator(const ctmc::Chain& chain,
                          std::uint64_t seed = 0x5EEDULL);

  /// One sampled time-to-absorption (hours) from the given transient
  /// state, drawn from the simulator's own stream (serial use).
  [[nodiscard]] double sample_absorption_time(ctmc::StateId initial);

  /// Same, from a caller-supplied stream (thread-safe: the transition
  /// table is read-only).
  [[nodiscard]] double sample_absorption_time(ctmc::StateId initial,
                                              Xoshiro256& rng) const;

  /// Mean time to absorption from `initial` over `trials` regenerative
  /// trials. An outcome counts as a failure when it enters an absorbing
  /// state or a state more BFS hops from `initial` than its source, and
  /// as a repair otherwise. Precondition: trials >= 2.
  [[nodiscard]] MttdlEstimate estimate(
      int trials, ctmc::StateId initial,
      const ParallelOptions& options = {}) const;

 private:
  const ctmc::Chain& chain_;
  // Outgoing outcomes of state s: outcomes_[first_[s] .. first_[s + 1]),
  // kLoss into absorbing states and kFailure otherwise.
  std::vector<std::size_t> first_;
  std::vector<Outcome<ctmc::StateId>> outcomes_;
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

}  // namespace nsrel::sim
