// Deterministic, fast PRNG for the Monte-Carlo simulator and property tests.
//
// xoshiro256++ (Blackman & Vigna): excellent statistical quality, trivially
// seedable, and — unlike std::mt19937 — identical output across standard
// library implementations, which keeps simulation tests reproducible.
#pragma once

#include <cstdint>

namespace nsrel {

/// One step of the splitmix64 generator: advances `state` by the golden
/// gamma and returns a fully mixed 64-bit output. Exposed (rather than
/// kept private to Xoshiro256 seeding) so seed-stream derivation and the
/// property tests share the exact same mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Derives the seed of an independent RNG stream from a base seed and a
/// stream index, via two splitmix64 mixes. For a fixed base seed the map
/// `stream -> stream_seed(seed, stream)` is injective (the final mix is a
/// bijection applied to values that differ per stream), so distinct
/// chunks of a Monte-Carlo run can never collide onto the same stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream);

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Exponential variate with the given rate (> 0).
  [[nodiscard]] double exponential(double rate);

  /// Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

 private:
  std::uint64_t state_[4];
};

}  // namespace nsrel
