#include "util/rng.hpp"

#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace nsrel {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // First decorrelate the base seed (users pass small integers), then
  // fold the stream index in and mix again. The second splitmix64 call
  // is a bijection of its pre-incremented state, so distinct streams map
  // to distinct seeds for any fixed base seed.
  std::uint64_t state = seed;
  state = splitmix64(state) ^ stream;
  return splitmix64(state);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Xoshiro256::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::exponential(double rate) {
  NSREL_EXPECTS(rate > 0.0);
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Xoshiro256::below(std::uint64_t n) {
  NSREL_EXPECTS(n > 0);
  // Rejection sampling for an unbiased result.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

bool Xoshiro256::bernoulli(double p) {
  NSREL_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

}  // namespace nsrel
