// The next-event distribution of a failure/repair process, and the one
// regenerative importance-sampling core every Markovian simulator uses.
//
// A simulator describes its process as a *model*: a regeneration state
// (all components up) and, for any state, the list of competing outcomes
// — each an exponential rate, a move (failure, repair or data loss), the
// next state, and an optional probability that taking the outcome loses
// data (a hard error during the rebuild it starts). Two samplers read
// that one list:
//
// * sample_time_to_loss: a direct trajectory to data loss (exponential
//   holding times, outcomes drawn in proportion to their rates).
// * sample_regenerative_trial: one trial of the ratio estimator
//   MTTDL = E[cycle time] / P(loss in a cycle), where a cycle runs from
//   the regeneration state until it returns there or loses data. A trial
//   is a pair of independent cycles:
//     - a plain cycle, whose time is the sum of the conditional holding
//       times 1/q(s) of the states it visits (no exponential draws);
//     - a biased cycle under balanced failure biasing (Shahabuddin,
//       Mgmt. Sci. 1994): where failure and loss outcomes together are
//       less likely than kFailureShare against the repairs, they get
//       kFailureShare, split evenly, and repairs share the rest by rate;
//       where nothing can be repaired (the regeneration state) the
//       failures are split evenly; elsewhere the step is drawn by rate.
//       It returns its likelihood ratio x 1{loss}, except that a hard
//       error is never drawn: the cycle adds its probability h times the
//       likelihood ratio so far and carries on weighted by (1 - h).
//       That sum is an unbiased estimate of P(loss in a cycle) for any
//       biasing that keeps every outcome possible.
//
// A model type M provides:
//   using State = ...;            // equality-comparable, cheap to copy
//   State start() const;          // the regeneration state
//   std::span<const Outcome<State>> outcomes(
//       const State& s, OutcomeBuffer<State>& scratch) const;
// outcomes() lists every outcome of a non-absorbed state with rate > 0,
// either written into `scratch` or pointing into the model's own tables.
// Both samplers only read the model, so one model may serve many threads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/estimate.hpp"
#include "sim/parallel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nsrel::sim {

/// The probability that balanced failure biasing gives the failures of a
/// state where repairs compete with them.
inline constexpr double kFailureShare = 0.5;

/// What taking an outcome does to the system. Loss ends the trajectory;
/// the biased cycle treats failures and losses alike.
enum class Move : std::uint8_t { kRepair, kFailure, kLoss };

template <class State>
struct Outcome {
  double rate = 0.0;  ///< events per hour, > 0
  Move move = Move::kFailure;
  State next{};             ///< the state entered (unused for kLoss)
  double hard_error = 0.0;  ///< P(data loss on taking this outcome)
};

/// Room for the outcomes a model writes into per state; a model whose
/// states have more returns a view of its own table instead.
template <class State>
using OutcomeBuffer = std::array<Outcome<State>, 4>;

namespace detail {

/// Which outcomes a draw chooses among, and how they are weighed.
enum class Among : std::uint8_t {
  kAll,             ///< every outcome, by rate
  kRepairs,         ///< repairs, by rate
  kFailuresEvenly,  ///< failures and losses, one unit each
};

/// Index of the outcome in the `among` group that `at` (in [0, the
/// group's total weight)) lands on, walking the list in order; rounding
/// at the top end resolves to the group's last outcome.
template <Among among, class State>
std::size_t pick(std::span<const Outcome<State>> outcomes, double at) {
  std::size_t chosen = outcomes.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome<State>& o = outcomes[i];
    const bool repair = o.move == Move::kRepair;
    if ((among == Among::kRepairs && !repair) ||
        (among == Among::kFailuresEvenly && repair)) {
      continue;
    }
    chosen = i;
    const double width = among == Among::kFailuresEvenly ? 1.0 : o.rate;
    if (at < width) break;
    at -= width;
  }
  NSREL_ASSERT(chosen < outcomes.size());
  return chosen;
}

template <class State>
double total_rate(std::span<const Outcome<State>> outcomes) {
  double total = 0.0;
  for (const Outcome<State>& o : outcomes) total += o.rate;
  NSREL_ASSERT(total > 0.0);
  return total;
}

/// The outcome drawn in proportion to the rates, or nullptr when taking
/// it loses data (a loss outcome, or a hard error drawn with its h).
template <class State>
const Outcome<State>* draw_by_rate(std::span<const Outcome<State>> outcomes,
                                   double total, Xoshiro256& rng) {
  const Outcome<State>& o =
      outcomes[pick<Among::kAll>(outcomes, rng.uniform() * total)];
  if (o.move == Move::kLoss) return nullptr;
  if (o.hard_error > 0.0 && rng.bernoulli(o.hard_error)) return nullptr;
  return &o;
}

}  // namespace detail

/// One direct trajectory from the regeneration state to data loss.
template <class Model>
double sample_time_to_loss(const Model& model, Xoshiro256& rng) {
  using State = typename Model::State;
  OutcomeBuffer<State> scratch;
  State state = model.start();
  double elapsed = 0.0;
  for (;;) {
    const std::span<const Outcome<State>> outcomes =
        model.outcomes(state, scratch);
    const double total = detail::total_rate(outcomes);
    elapsed += rng.exponential(total);
    const Outcome<State>* o = detail::draw_by_rate(outcomes, total, rng);
    if (o == nullptr) return elapsed;
    state = o->next;
  }
}

/// One trial of the regenerative estimator: a plain cycle's expected
/// time and an independent biased cycle's likelihood-weighted loss.
template <class Model>
RegenerativeTrial sample_regenerative_trial(const Model& model,
                                            Xoshiro256& rng) {
  using State = typename Model::State;
  OutcomeBuffer<State> scratch;
  const State start = model.start();
  RegenerativeTrial trial{0.0, 0.0};

  // Plain cycle: conditional holding times, outcomes by rate.
  for (State state = start;;) {
    const std::span<const Outcome<State>> outcomes =
        model.outcomes(state, scratch);
    const double total = detail::total_rate(outcomes);
    trial.cycle_hours += 1.0 / total;
    const Outcome<State>* o = detail::draw_by_rate(outcomes, total, rng);
    if (o == nullptr) break;
    state = o->next;
    if (state == start) break;
  }

  // Biased cycle: balanced failure biasing, weighted by the likelihood
  // ratio of the path under the true and the biased probabilities. A
  // loss outcome ends it with its weight. A hard error is not drawn: the
  // cycle banks weight x h and carries on with weight x (1 - h).
  double weight = 1.0;
  for (State state = start;;) {
    const std::span<const Outcome<State>> outcomes =
        model.outcomes(state, scratch);
    double total = 0.0;
    double repairs = 0.0;
    std::size_t failures = 0;
    for (const Outcome<State>& o : outcomes) {
      total += o.rate;
      if (o.move == Move::kRepair) {
        repairs += o.rate;
      } else {
        ++failures;
      }
    }
    NSREL_ASSERT(total > 0.0);
    // Failures share kFailureShare when they are rarer than that, and all
    // of it where nothing can be repaired; otherwise the step is drawn by
    // rate.
    const double share = repairs > 0.0 ? kFailureShare : 1.0;
    const bool biased =
        failures > 0 && (repairs == 0.0 || total - repairs < share * total);
    const double u = rng.uniform();
    std::size_t chosen = 0;
    if (!biased) {
      chosen = detail::pick<detail::Among::kAll>(outcomes, u * total);
    } else if (u < share) {
      const double nth = u / share * static_cast<double>(failures);
      chosen = detail::pick<detail::Among::kFailuresEvenly>(outcomes, nth);
      weight *= outcomes[chosen].rate * static_cast<double>(failures) /
                (share * total);
    } else {
      const double at = (u - share) / (1.0 - share) * repairs;
      chosen = detail::pick<detail::Among::kRepairs>(outcomes, at);
      weight *= repairs / ((1.0 - share) * total);
    }
    const Outcome<State>& o = outcomes[chosen];
    if (o.move == Move::kLoss) {
      trial.loss_weight += weight;
      return trial;
    }
    if (o.hard_error > 0.0) {
      trial.loss_weight += weight * o.hard_error;
      weight *= 1.0 - o.hard_error;
      if (!(weight > 0.0)) return trial;  // a saturated hard error
    }
    state = o.next;
    if (state == start) return trial;
  }
}

/// Regenerative MTTDL estimate of `model` through the parallel engine:
/// bit-identical for a fixed (seed, trials, chunk_trials) at any jobs.
template <class Model>
MttdlEstimate estimate_mttdl(const Model& model, int trials,
                             std::uint64_t seed,
                             const ParallelOptions& options) {
  return run_trials(
      RegenerativeSampler([&model](Xoshiro256& rng) {
        return sample_regenerative_trial(model, rng);
      }),
      trials, seed, options);
}

}  // namespace nsrel::sim
