#include "sim/chain_simulator.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::sim {

namespace {

/// The chain as a next-event distribution regenerating at `root`.
struct ChainModel {
  using State = ctmc::StateId;
  State root = 0;
  std::span<const std::size_t> first;
  std::span<const Outcome<State>> table;

  [[nodiscard]] State start() const { return root; }
  [[nodiscard]] std::span<const Outcome<State>> outcomes(
      const State& state, OutcomeBuffer<State>& /*scratch*/) const {
    return table.subspan(first[state], first[state + 1] - first[state]);
  }
};

}  // namespace

ChainSimulator::ChainSimulator(const ctmc::Chain& chain, std::uint64_t seed)
    : chain_(chain), seed_(seed), rng_(seed) {
  NSREL_EXPECTS(chain_.validate().empty());
  first_.assign(chain_.state_count() + 1, 0);
  for (const auto& t : chain_.transitions()) ++first_[t.from + 1];
  for (std::size_t s = 0; s < chain_.state_count(); ++s) {
    first_[s + 1] += first_[s];
  }
  outcomes_.resize(chain_.transitions().size());
  std::vector<std::size_t> fill(first_.begin(), first_.end() - 1);
  for (const auto& t : chain_.transitions()) {
    const bool absorbing =
        chain_.state(t.to).kind == ctmc::StateKind::kAbsorbing;
    outcomes_[fill[t.from]++] = {
        t.rate, absorbing ? Move::kLoss : Move::kFailure, t.to};
  }
}

double ChainSimulator::sample_absorption_time(ctmc::StateId initial) {
  return sample_absorption_time(initial, rng_);
}

double ChainSimulator::sample_absorption_time(ctmc::StateId initial,
                                              Xoshiro256& rng) const {
  NSREL_EXPECTS(initial < chain_.state_count());
  NSREL_EXPECTS(chain_.state(initial).kind == ctmc::StateKind::kTransient);
  return sample_time_to_loss(ChainModel{initial, first_, outcomes_}, rng);
}

MttdlEstimate ChainSimulator::estimate(int trials, ctmc::StateId initial,
                                       const ParallelOptions& options) const {
  NSREL_EXPECTS(initial < chain_.state_count());
  NSREL_EXPECTS(chain_.state(initial).kind == ctmc::StateKind::kTransient);
  // BFS hop distance from `initial` classifies failures and repairs.
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> hops(chain_.state_count(), kUnreached);
  std::queue<ctmc::StateId> frontier;
  hops[initial] = 0;
  frontier.push(initial);
  while (!frontier.empty()) {
    const ctmc::StateId s = frontier.front();
    frontier.pop();
    for (std::size_t i = first_[s]; i < first_[s + 1]; ++i) {
      const ctmc::StateId next = outcomes_[i].next;
      if (hops[next] != kUnreached) continue;
      hops[next] = hops[s] + 1;
      frontier.push(next);
    }
  }
  std::vector<Outcome<ctmc::StateId>> classified = outcomes_;
  for (ctmc::StateId s = 0; s < chain_.state_count(); ++s) {
    for (std::size_t i = first_[s]; i < first_[s + 1]; ++i) {
      Outcome<ctmc::StateId>& o = classified[i];
      if (o.move == Move::kLoss) continue;
      o.move = hops[o.next] > hops[s] ? Move::kFailure : Move::kRepair;
    }
  }
  return estimate_mttdl(ChainModel{initial, first_, classified}, trials,
                        seed_, options);
}

}  // namespace nsrel::sim
