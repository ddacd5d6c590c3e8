#include "ctmc/chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::ctmc {

StateId Chain::add_state(std::string label, StateKind kind) {
  states_.push_back(Slot{State{std::move(label), kind}});
  return states_.size() - 1;
}

void Chain::add_transition(StateId from, StateId to, double rate) {
  NSREL_EXPECTS(from < states_.size());
  NSREL_EXPECTS(to < states_.size());
  NSREL_EXPECTS(from != to);
  NSREL_EXPECTS(rate > 0.0);
  NSREL_EXPECTS(std::isfinite(rate));
  Slot& source = states_[from];
  NSREL_EXPECTS(source.state.kind == StateKind::kTransient);
  for (std::size_t t = source.first_out; t != kNoTransition;
       t = next_out_[t]) {
    if (transitions_[t].to == to) {
      transitions_[t].rate += rate;
      return;
    }
  }
  next_out_.push_back(source.first_out);
  source.first_out = transitions_.size();
  transitions_.push_back(Transition{from, to, rate});
}

std::size_t Chain::transient_count() const {
  return static_cast<std::size_t>(
      std::count_if(states_.begin(), states_.end(), [](const Slot& s) {
        return s.state.kind == StateKind::kTransient;
      }));
}

std::size_t Chain::absorbing_count() const {
  return states_.size() - transient_count();
}

const State& Chain::state(StateId id) const {
  NSREL_EXPECTS(id < states_.size());
  return states_[id].state;
}

StateId Chain::find_state(const std::string& label) const {
  StateId found = states_.size();
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].state.label == label) {
      NSREL_EXPECTS(found == states_.size());  // ambiguous label
      found = i;
    }
  }
  NSREL_EXPECTS(found < states_.size());  // missing label
  return found;
}

std::vector<StateId> Chain::transient_states() const {
  std::vector<StateId> result;
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].state.kind == StateKind::kTransient) result.push_back(i);
  }
  return result;
}

std::vector<StateId> Chain::absorbing_states() const {
  std::vector<StateId> result;
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].state.kind == StateKind::kAbsorbing) result.push_back(i);
  }
  return result;
}

linalg::sparse::CsrMatrix Chain::generator() const {
  const std::size_t n = states_.size();
  std::vector<linalg::sparse::Triplet> triplets;
  triplets.reserve(2 * transitions_.size());
  for (const auto& t : transitions_) {
    triplets.push_back({static_cast<std::uint32_t>(t.from),
                        static_cast<std::uint32_t>(t.to), t.rate});
    triplets.push_back({static_cast<std::uint32_t>(t.from),
                        static_cast<std::uint32_t>(t.from), -t.rate});
  }
  return linalg::sparse::CsrMatrix::from_triplets(n, n, triplets);
}

linalg::sparse::CsrMatrix Chain::absorption_matrix() const {
  const auto transient = transient_states();
  const std::size_t n = transient.size();
  std::vector<std::size_t> index(states_.size(), states_.size());
  for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;

  std::vector<linalg::sparse::Triplet> triplets;
  triplets.reserve(2 * transitions_.size());
  for (const auto& t : transitions_) {
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from < n);
    // Diagonal reflects ALL outflow, including flow into absorbing
    // states; off-diagonals are negated transient-to-transient rates.
    triplets.push_back({static_cast<std::uint32_t>(from),
                        static_cast<std::uint32_t>(from), t.rate});
    const std::size_t to = index[t.to];
    if (to < n) {
      triplets.push_back({static_cast<std::uint32_t>(from),
                          static_cast<std::uint32_t>(to), -t.rate});
    }
  }
  return linalg::sparse::CsrMatrix::from_triplets(n, n, triplets);
}

std::vector<double> Chain::rates_into(StateId absorbing) const {
  NSREL_EXPECTS(absorbing < states_.size());
  NSREL_EXPECTS(states_[absorbing].state.kind == StateKind::kAbsorbing);
  const auto transient = transient_states();
  std::vector<std::size_t> index(states_.size(), states_.size());
  for (std::size_t i = 0; i < transient.size(); ++i) index[transient[i]] = i;

  std::vector<double> rates(transient.size(), 0.0);
  for (const auto& t : transitions_) {
    if (t.to != absorbing) continue;
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from != states_.size());
    rates[from] += t.rate;
  }
  return rates;
}

double Chain::exit_rate(StateId id) const {
  NSREL_EXPECTS(id < states_.size());
  double total = 0.0;
  for (const auto& t : transitions_) {
    if (t.from == id) total += t.rate;
  }
  return total;
}

std::string Chain::validate() const {
  if (transient_count() == 0) return "chain has no transient states";
  if (absorbing_count() == 0) return "chain has no absorbing states";

  // Search the reversed graph from the absorbing states: every transient
  // state must be able to reach absorption, otherwise MTTDL is infinite
  // and the absorption matrix is singular. The reverse adjacency is
  // built once, so the search is O(states + transitions): the sources of
  // the transitions into state s are sources[first[s]..first[s+1]).
  // first[s] counts into s, is summed to the end of s's range, and each
  // source placed steps it back to the start.
  const std::size_t n = states_.size();
  std::vector<std::size_t> first(n + 1, 0);
  for (const auto& t : transitions_) ++first[t.to];
  for (std::size_t s = 1; s <= n; ++s) first[s] += first[s - 1];
  std::vector<StateId> sources(transitions_.size());
  for (const auto& t : transitions_) sources[--first[t.to]] = t.from;

  // Which states are reached does not depend on the search order, so
  // the frontier is a stack.
  std::vector<char> reaches(n, 0);
  std::vector<StateId> frontier;
  frontier.reserve(n);
  for (StateId s = 0; s < n; ++s) {
    if (states_[s].state.kind == StateKind::kAbsorbing) {
      reaches[s] = 1;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const StateId current = frontier.back();
    frontier.pop_back();
    for (std::size_t i = first[current]; i < first[current + 1]; ++i) {
      if (!reaches[sources[i]]) {
        reaches[sources[i]] = 1;
        frontier.push_back(sources[i]);
      }
    }
  }
  for (StateId i = 0; i < n; ++i) {
    if (!reaches[i]) {
      return "state '" + states_[i].state.label + "' cannot reach absorption";
    }
  }
  return {};
}

}  // namespace nsrel::ctmc
