// Tests for the GF(256) field and the Reed-Solomon erasure code: field
// axioms (property-swept), MDS recoverability for every erasure pattern on
// small codes, and random-pattern recovery on paper-sized codes.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "erasure/gf256.hpp"
#include "erasure/reed_solomon.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nsrel::erasure {
namespace {

using E = GF256::Element;

TEST(Gf256, AdditionIsXorAndSelfInverse) {
  EXPECT_EQ(GF256::add(0x57, 0x83), 0x57 ^ 0x83);
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::add(static_cast<E>(a), static_cast<E>(a)), 0);
    EXPECT_EQ(GF256::sub(static_cast<E>(a), 0), a);
  }
}

TEST(Gf256, KnownAesMultiplication) {
  // Classic AES test vector: 0x57 * 0x83 = 0xC1 under 0x11B.
  EXPECT_EQ(GF256::mul(0x57, 0x83), 0xC1);
  EXPECT_EQ(GF256::mul(0x57, 0x13), 0xFE);
}

TEST(Gf256, MultiplicationByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<E>(a), 0), 0);
    EXPECT_EQ(GF256::mul(static_cast<E>(a), 1), a);
  }
}

TEST(Gf256, MultiplicationCommutes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const E a = static_cast<E>(rng.below(256));
    const E b = static_cast<E>(rng.below(256));
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
  }
}

TEST(Gf256, MultiplicationAssociates) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 2000; ++i) {
    const E a = static_cast<E>(rng.below(256));
    const E b = static_cast<E>(rng.below(256));
    const E c = static_cast<E>(rng.below(256));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
  }
}

TEST(Gf256, DistributesOverAddition) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const E a = static_cast<E>(rng.below(256));
    const E b = static_cast<E>(rng.below(256));
    const E c = static_cast<E>(rng.below(256));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const E inv = GF256::inv(static_cast<E>(a));
    EXPECT_EQ(GF256::mul(static_cast<E>(a), inv), 1) << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 2000; ++i) {
    const E a = static_cast<E>(rng.below(256));
    const E b = static_cast<E>(1 + rng.below(255));
    EXPECT_EQ(GF256::div(GF256::mul(a, b), b), a);
  }
}

TEST(Gf256, InverseOfZeroThrows) {
  EXPECT_THROW((void)GF256::inv(0), ContractViolation);
  EXPECT_THROW((void)GF256::div(1, 0), ContractViolation);
  EXPECT_THROW((void)GF256::log(0), ContractViolation);
}

TEST(Gf256, GeneratorHasFullOrder) {
  // exp must visit all 255 nonzero elements before repeating.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    const E value = GF256::exp(i);
    EXPECT_FALSE(seen[value]) << "cycle shorter than 255 at " << i;
    seen[value] = true;
  }
  EXPECT_EQ(GF256::exp(255), GF256::exp(0));
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (const E base : {E{2}, E{3}, E{0x53}}) {
    E accumulated = 1;
    for (unsigned p = 0; p < 20; ++p) {
      EXPECT_EQ(GF256::pow(base, p), accumulated) << "p=" << p;
      accumulated = GF256::mul(accumulated, base);
    }
  }
}

TEST(Gf256, MulAddRegionMatchesMulForEveryPair) {
  // All 65,536 (scalar, byte) pairs: one region per scalar holding every
  // byte value, accumulated onto a nonzero destination.
  std::vector<E> src(256);
  std::iota(src.begin(), src.end(), 0);
  for (int c = 0; c < 256; ++c) {
    std::vector<E> dst(256, 0x5A);
    GF256::mul_add_region(dst.data(), static_cast<E>(c), src.data(),
                          src.size());
    for (int x = 0; x < 256; ++x) {
      ASSERT_EQ(dst[static_cast<std::size_t>(x)],
                GF256::add(0x5A, GF256::mul(static_cast<E>(c),
                                            static_cast<E>(x))))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(Gf256, MulAddRegionHonoursLengthAtOddSizes) {
  Xoshiro256 rng(8);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1025}}) {
    for (const E c : {E{0}, E{1}, E{2}, E{0x8E}, E{0xFF}}) {
      std::vector<E> src(n + 3);
      std::vector<E> dst(n + 3);
      for (auto& b : src) b = static_cast<E>(rng.below(256));
      for (auto& b : dst) b = static_cast<E>(rng.below(256));
      std::vector<E> expected = dst;
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = GF256::add(expected[i], GF256::mul(c, src[i]));
      }
      GF256::mul_add_region(dst.data(), c, src.data(), n);
      EXPECT_EQ(dst, expected) << "n=" << n << " c=" << int{c};  // tail intact
    }
  }
}

TEST(GfInvert, IdentityAndSingular) {
  const std::vector<std::vector<E>> identity{{1, 0}, {0, 1}};
  const auto inv = gf_invert(identity);
  EXPECT_EQ(inv, identity);
  const std::vector<std::vector<E>> singular{{1, 1}, {1, 1}};
  EXPECT_TRUE(gf_invert(singular).empty());
}

std::vector<Shard> random_data(int shards, std::size_t size, Xoshiro256& rng) {
  std::vector<Shard> data(static_cast<std::size_t>(shards), Shard(size));
  for (auto& shard : data) {
    for (auto& byte : shard) byte = static_cast<std::uint8_t>(rng.below(256));
  }
  return data;
}

TEST(ReedSolomon, EncodeIsDeterministicAndSized) {
  Xoshiro256 rng(9);
  const ReedSolomonCode code(6, 2);
  const auto data = random_data(6, 64, rng);
  const auto parity1 = code.encode(data);
  const auto parity2 = code.encode(data);
  ASSERT_EQ(parity1.size(), 2u);
  EXPECT_EQ(parity1, parity2);
  EXPECT_EQ(parity1[0].size(), 64u);
}

TEST(ReedSolomon, RoundTripWithNoErasures) {
  Xoshiro256 rng(10);
  const ReedSolomonCode code(5, 3);
  const auto data = random_data(5, 32, rng);
  auto shards = data;
  const auto parity = code.encode(data);
  shards.insert(shards.end(), parity.begin(), parity.end());
  const std::vector<bool> present(8, true);
  const auto rebuilt = code.reconstruct(shards, present);
  EXPECT_EQ(rebuilt, shards);
}

TEST(ReedSolomon, EveryErasurePatternUpToTolerance) {
  // MDS property, exhaustively: for an (k=4, t=3) code, ALL patterns of
  // up to 3 erasures out of 7 shards must reconstruct exactly.
  Xoshiro256 rng(11);
  const int k = 4;
  const int t = 3;
  const int total = k + t;
  const ReedSolomonCode code(k, t);
  const auto data = random_data(k, 16, rng);
  auto shards = data;
  const auto parity = code.encode(data);
  shards.insert(shards.end(), parity.begin(), parity.end());

  for (unsigned mask = 0; mask < (1u << total); ++mask) {
    const int erased = __builtin_popcount(mask);
    if (erased > t) continue;
    std::vector<bool> present(static_cast<std::size_t>(total), true);
    auto damaged = shards;
    for (int i = 0; i < total; ++i) {
      if (mask & (1u << i)) {
        present[static_cast<std::size_t>(i)] = false;
        damaged[static_cast<std::size_t>(i)].assign(16, 0xEE);  // corrupt
      }
    }
    const auto rebuilt = code.reconstruct(damaged, present);
    EXPECT_EQ(rebuilt, shards) << "mask=" << mask;
  }
}

TEST(ReedSolomon, PaperSizedCodesRecoverRandomErasures) {
  // The paper's R=8 redundancy sets with t = 1, 2, 3.
  Xoshiro256 rng(12);
  for (int t = 1; t <= 3; ++t) {
    const int k = 8 - t;
    const ReedSolomonCode code(k, t);
    const auto data = random_data(k, 128, rng);
    auto shards = data;
    const auto parity = code.encode(data);
    shards.insert(shards.end(), parity.begin(), parity.end());

    for (int trial = 0; trial < 50; ++trial) {
      std::vector<bool> present(8, true);
      auto damaged = shards;
      int erased = 0;
      while (erased < t) {
        const auto victim = static_cast<std::size_t>(rng.below(8));
        if (!present[victim]) continue;
        present[victim] = false;
        damaged[victim].clear();
        damaged[victim].resize(128, 0);
        ++erased;
      }
      EXPECT_EQ(code.reconstruct(damaged, present), shards)
          << "t=" << t << " trial=" << trial;
    }
  }
}

TEST(ReedSolomon, DecodeEqualsReconstructRowsForEveryPattern) {
  // decode(view, wanted) must return exactly the wanted rows of
  // reconstruct(), for every erasure pattern up to t and for each lost
  // shard alone, every lost shard, and every shard.
  Xoshiro256 rng(14);
  for (const auto& [r, t] : {std::pair{6, 2}, std::pair{8, 3}}) {
    const int k = r - t;
    const ReedSolomonCode code(k, t);
    const auto data = random_data(k, 96, rng);
    auto shards = data;
    const auto parity = code.encode(data);
    shards.insert(shards.end(), parity.begin(), parity.end());
    for (unsigned mask = 0; mask < (1u << r); ++mask) {
      if (__builtin_popcount(mask) > t) continue;
      std::vector<bool> present(static_cast<std::size_t>(r), true);
      std::vector<const Shard*> view(static_cast<std::size_t>(r));
      std::vector<int> lost;
      for (int i = 0; i < r; ++i) {
        const auto u = static_cast<std::size_t>(i);
        present[u] = (mask & (1u << i)) == 0;
        view[u] = present[u] ? &shards[u] : nullptr;
        if (!present[u]) lost.push_back(i);
      }
      const auto full = code.reconstruct(shards, present);
      std::vector<int> all(static_cast<std::size_t>(r));
      std::iota(all.begin(), all.end(), 0);
      EXPECT_EQ(code.decode(view, all), full) << "mask=" << mask;
      const auto decoded = code.decode(view, lost);
      ASSERT_EQ(decoded.size(), lost.size());
      for (std::size_t j = 0; j < lost.size(); ++j) {
        EXPECT_EQ(decoded[j], full[static_cast<std::size_t>(lost[j])])
            << "mask=" << mask << " shard=" << lost[j];
        const auto one = code.decode(view, {&lost[j], 1});
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(one.front(), full[static_cast<std::size_t>(lost[j])]);
      }
    }
  }
}

TEST(ReedSolomon, TooManyErasuresIsRejected) {
  const ReedSolomonCode code(4, 2);
  std::vector<bool> present(6, true);
  present[0] = present[1] = present[2] = false;
  EXPECT_FALSE(code.recoverable(present));
  const std::vector<Shard> shards(6, Shard(8, 0));
  EXPECT_THROW((void)code.reconstruct(shards, present), ContractViolation);
}

TEST(ReedSolomon, SingleParityIsXor) {
  // t=1 over GF(2^8) with a Cauchy row of constant factor? Not XOR in
  // general — but decoding a single erased DATA shard must still work,
  // which is the RAID-5-across-nodes analogy.
  Xoshiro256 rng(13);
  const ReedSolomonCode code(7, 1);
  const auto data = random_data(7, 64, rng);
  auto shards = data;
  const auto parity = code.encode(data);
  shards.insert(shards.end(), parity.begin(), parity.end());
  std::vector<bool> present(8, true);
  present[3] = false;
  auto damaged = shards;
  damaged[3].assign(64, 0);
  EXPECT_EQ(code.reconstruct(damaged, present), shards);
}

TEST(ReedSolomon, GeneratorSubmatricesAreInvertible) {
  // Direct check of the MDS property on the generator: every k-row subset
  // of a (k=3, t=3) generator must be invertible.
  const ReedSolomonCode code(3, 3);
  const auto g = code.generator();
  std::vector<int> rows(6);
  std::iota(rows.begin(), rows.end(), 0);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      for (int c = b + 1; c < 6; ++c) {
        const std::vector<std::vector<E>> sub{
            g[static_cast<std::size_t>(a)], g[static_cast<std::size_t>(b)],
            g[static_cast<std::size_t>(c)]};
        EXPECT_FALSE(gf_invert(sub).empty())
            << a << "," << b << "," << c;
      }
    }
  }
}

TEST(ReedSolomon, RejectsInvalidShape) {
  EXPECT_THROW(ReedSolomonCode(0, 1), ContractViolation);
  EXPECT_THROW(ReedSolomonCode(1, 0), ContractViolation);
  EXPECT_THROW(ReedSolomonCode(200, 100), ContractViolation);
  const ReedSolomonCode code(4, 2);
  EXPECT_THROW((void)code.encode(std::vector<Shard>(3, Shard(8, 0))),
               ContractViolation);
}

}  // namespace
}  // namespace nsrel::erasure
