// Continuous-time Markov chain representation.
//
// A `Chain` is a labeled state space with exponential transition rates,
// some states marked absorbing (data-loss states in this library's models).
// The class exposes the infinitesimal generator Q and the paper
// appendix's "absorption matrix" R = -Q_B, where Q_B is Q restricted to
// the transient (non-absorbing) states; both in CSR form.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/sparse/sparse_matrix.hpp"

namespace nsrel::ctmc {

using StateId = std::size_t;

enum class StateKind : unsigned char { kTransient, kAbsorbing };

struct State {
  std::string label;
  StateKind kind = StateKind::kTransient;
};

struct Transition {
  StateId from = 0;
  StateId to = 0;
  double rate = 0.0;  ///< events per hour
};

class Chain {
 public:
  /// Adds a state; returns its id (ids are dense, in insertion order).
  StateId add_state(std::string label,
                    StateKind kind = StateKind::kTransient);

  /// Adds a transition with the given finite rate (> 0). Transitions out
  /// of absorbing states are rejected; parallel transitions accumulate
  /// into the first one, in call order. O(out-degree of `from`).
  void add_transition(StateId from, StateId to, double rate);

  [[nodiscard]] std::size_t state_count() const { return states_.size(); }
  [[nodiscard]] std::size_t transient_count() const;
  [[nodiscard]] std::size_t absorbing_count() const;
  [[nodiscard]] const State& state(StateId id) const;
  /// Every transition once, in order of first occurrence.
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// Id of the state with the given label; throws if absent or ambiguous.
  [[nodiscard]] StateId find_state(const std::string& label) const;

  /// Ids of transient states, in insertion order. This ordering defines the
  /// rows/columns of absorption_matrix().
  [[nodiscard]] std::vector<StateId> transient_states() const;
  [[nodiscard]] std::vector<StateId> absorbing_states() const;

  /// Full infinitesimal generator Q: off-diagonal entries are transition
  /// rates, diagonal entries make each row sum to zero (a state with no
  /// outgoing transition has an empty row).
  [[nodiscard]] linalg::sparse::CsrMatrix generator() const;

  /// R = -Q_B, the appendix's absorption matrix: positive diagonal (ALL
  /// outflow, including flow into absorbing states), non-positive
  /// off-diagonal entries.
  [[nodiscard]] linalg::sparse::CsrMatrix absorption_matrix() const;

  /// For each transient state (in transient_states() order), the total rate
  /// into the given absorbing state.
  [[nodiscard]] std::vector<double> rates_into(StateId absorbing) const;

  /// Total exit rate of a state (sum of outgoing transition rates).
  [[nodiscard]] double exit_rate(StateId id) const;

  /// Structural sanity checks: at least one transient and one absorbing
  /// state, and every transient state can reach an absorbing state.
  /// Returns an empty string when valid, else a description of the defect.
  [[nodiscard]] std::string validate() const;

 private:
  static constexpr std::size_t kNoTransition = ~std::size_t{0};

  // The transitions out of each state are threaded as a list through
  // transitions_: a state's slot heads its list, and next_out_[t] links
  // transition t to the next one out of the same state. The lists serve
  // only add_transition's duplicate lookup; nothing iterates them for
  // output.
  struct Slot {
    State state;
    std::size_t first_out = kNoTransition;
  };

  std::vector<Slot> states_;
  std::vector<Transition> transitions_;
  std::vector<std::size_t> next_out_;
};

}  // namespace nsrel::ctmc
