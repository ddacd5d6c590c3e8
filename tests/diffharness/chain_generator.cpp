#include "diffharness/chain_generator.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace nsrel::diffharness {

namespace {

/// "<prefix><i>", built by append: g++ 12's -Wrestrict misfires on
/// `"literal" + std::string&&` in optimized builds.
std::string numbered(const char* prefix, std::size_t i) {
  std::string label = prefix;
  label += std::to_string(i);
  return label;
}

}  // namespace

double random_rate(Xoshiro256& rng) {
  // 10^u for u uniform in [-3, 3).
  return std::pow(10.0, -3.0 + 6.0 * rng.uniform());
}

ctmc::Chain birth_death(Xoshiro256& rng, std::size_t transient) {
  NSREL_EXPECTS(transient >= 1);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < transient; ++i) {
    chain.add_state(numbered("d", i), ctmc::StateKind::kTransient);
  }
  const ctmc::StateId loss =
      chain.add_state("loss", ctmc::StateKind::kAbsorbing);
  for (std::size_t i = 0; i < transient; ++i) {
    const ctmc::StateId next = i + 1 < transient ? i + 1 : loss;
    chain.add_transition(i, next, random_rate(rng));
    if (i > 0 && rng.bernoulli(0.8)) {
      chain.add_transition(i, i - 1, random_rate(rng));
    }
  }
  return chain;
}

ctmc::Chain random_absorbing(Xoshiro256& rng, std::size_t transient,
                             std::size_t absorbing, double extra_density) {
  NSREL_EXPECTS(transient >= 1);
  NSREL_EXPECTS(absorbing >= 1);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < transient; ++i) {
    chain.add_state(numbered("t", i), ctmc::StateKind::kTransient);
  }
  std::vector<ctmc::StateId> sinks;
  for (std::size_t a = 0; a < absorbing; ++a) {
    sinks.push_back(
        chain.add_state(numbered("a", a), ctmc::StateKind::kAbsorbing));
  }
  // Backbone: every transient state walks forward into the first sink,
  // so validate()'s reachability check passes by construction.
  for (std::size_t i = 0; i < transient; ++i) {
    const ctmc::StateId next = i + 1 < transient ? i + 1 : sinks.front();
    chain.add_transition(i, next, random_rate(rng));
  }
  // Random extra edges (duplicates accumulate rates, which is fine).
  for (std::size_t i = 0; i < transient; ++i) {
    for (std::size_t j = 0; j < transient; ++j) {
      if (i != j && rng.bernoulli(extra_density)) {
        chain.add_transition(i, j, random_rate(rng));
      }
    }
    for (const ctmc::StateId sink : sinks) {
      if (rng.bernoulli(extra_density / 2.0)) {
        chain.add_transition(i, sink, random_rate(rng));
      }
    }
  }
  return chain;
}

ctmc::Chain random_irreducible(Xoshiro256& rng, std::size_t n,
                               double extra_density) {
  NSREL_EXPECTS(n >= 2);
  ctmc::Chain chain;
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_state(numbered("s", i), ctmc::StateKind::kTransient);
  }
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_transition(i, (i + 1) % n, random_rate(rng));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(extra_density)) {
        chain.add_transition(i, j, random_rate(rng));
      }
    }
  }
  return chain;
}

models::NoInternalRaidParams random_recursive_params(Xoshiro256& rng,
                                                     int fault_tolerance) {
  NSREL_EXPECTS(fault_tolerance >= 1);
  models::NoInternalRaidParams p;
  p.fault_tolerance = fault_tolerance;
  p.node_set_size =
      fault_tolerance + 2 + static_cast<int>(rng.below(32));
  p.redundancy_set_size =
      fault_tolerance + 1 +
      static_cast<int>(rng.below(
          static_cast<std::uint64_t>(p.node_set_size - fault_tolerance)));
  p.drives_per_node = 1 + static_cast<int>(rng.below(16));
  // Failures around 1e-6..1e-4 per hour, rebuilds around 1e-2..1: the
  // repair-dominant regime the models target.
  p.node_failure = PerHour{1e-6 * std::pow(100.0, rng.uniform())};
  p.drive_failure = PerHour{1e-6 * std::pow(100.0, rng.uniform())};
  p.node_rebuild = PerHour{1e-2 * std::pow(100.0, rng.uniform())};
  p.drive_rebuild = PerHour{1e-2 * std::pow(100.0, rng.uniform())};
  return p;
}

DegenerateSystem trapped_system(std::size_t healthy, std::size_t trapped) {
  NSREL_EXPECTS(trapped >= 2);
  const std::size_t n = healthy + trapped;
  DegenerateSystem system;
  system.absorption_rates.assign(n, 0.0);
  std::vector<linalg::sparse::Triplet> triplets;

  const auto entry = [&](std::size_t r, std::size_t c, double value) {
    triplets.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(c), value});
  };

  // Healthy states: exit 3, jump 1 forward, absorb 2 — plus one edge
  // from the last healthy state into the trap so the trap is reachable.
  for (std::size_t i = 0; i < healthy; ++i) {
    entry(i, i, 3.0);
    entry(i, i + 1, -1.0);
    system.absorption_rates[i] = 2.0;
  }
  // Trap states: a pure directed cycle, exit 1, zero absorption.
  for (std::size_t t = 0; t < trapped; ++t) {
    const std::size_t from = healthy + t;
    const std::size_t to = healthy + (t + 1) % trapped;
    entry(from, from, 1.0);
    entry(from, to, -1.0);
  }
  system.sparse = linalg::sparse::CsrMatrix::from_triplets(n, n, triplets);
  return system;
}

ctmc::Chain disconnected_cycles() {
  ctmc::Chain chain;
  for (int i = 0; i < 4; ++i) {
    chain.add_state(numbered("c", i), ctmc::StateKind::kTransient);
  }
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 1.0);
  chain.add_transition(2, 3, 1.0);
  chain.add_transition(3, 2, 1.0);
  return chain;
}

}  // namespace nsrel::diffharness
