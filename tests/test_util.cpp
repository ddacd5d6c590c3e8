// Unit tests for the util substrate: contracts, units, math, RNG, format.
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nsrel {
namespace {

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(NSREL_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(NSREL_EXPECTS(true));
}

TEST(Contracts, MessageNamesTheExpression) {
  try {
    NSREL_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Units, HoursSecondsRoundTrip) {
  const Hours h(2.5);
  EXPECT_DOUBLE_EQ(to_seconds(h).value(), 9000.0);
  EXPECT_DOUBLE_EQ(to_hours(to_seconds(h)).value(), 2.5);
}

TEST(Units, RateInversion) {
  const Hours mttf(400'000.0);
  const PerHour rate = rate_of(mttf);
  EXPECT_DOUBLE_EQ(rate.value(), 1.0 / 400'000.0);
  EXPECT_DOUBLE_EQ(mean_time_of(rate).value(), 400'000.0);
}

TEST(Units, RateOfRejectsNonPositive) {
  EXPECT_THROW((void)rate_of(Hours(0.0)), ContractViolation);
  EXPECT_THROW((void)rate_of(Hours(-1.0)), ContractViolation);
}

TEST(Units, ByteFactories) {
  EXPECT_DOUBLE_EQ(kilobytes(128.0).value(), 131072.0);
  EXPECT_DOUBLE_EQ(megabytes(1.0).value(), 1048576.0);
  EXPECT_DOUBLE_EQ(gigabytes(300.0).value(), 3e11);
  EXPECT_DOUBLE_EQ(petabytes(1.0).value(), 1e15);
}

TEST(Units, LinkConversionMatchesPaper) {
  // 10 Gb/s at 64% efficiency is the paper's 800 MB/s sustained.
  const BitsPerSecond raw = gigabits_per_second(10.0);
  EXPECT_DOUBLE_EQ(to_bytes_per_second(raw).value() * 0.64, 800e6);
}

TEST(Units, TransferTime) {
  EXPECT_DOUBLE_EQ(
      transfer_time(Bytes(100.0), BytesPerSecond(25.0)).value(), 4.0);
  EXPECT_THROW((void)transfer_time(Bytes(1.0), BytesPerSecond(0.0)),
               ContractViolation);
}

TEST(Units, QuantityArithmetic) {
  const Hours a(2.0), b(3.0);
  EXPECT_DOUBLE_EQ((a + b).value(), 5.0);
  EXPECT_DOUBLE_EQ((b - a).value(), 1.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 4.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(b / a, 1.5);
  EXPECT_LT(a, b);
}

TEST(Math, BinomialSmallValues) {
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(64, 8), 4426165368.0);
}

TEST(Math, BinomialOutOfRangeIsZero) {
  EXPECT_DOUBLE_EQ(binomial(5, 6), 0.0);
  EXPECT_DOUBLE_EQ(binomial(5, -1), 0.0);
  EXPECT_DOUBLE_EQ(binomial(-1, 0), 0.0);
}

TEST(Math, BinomialPascalIdentity) {
  for (int n = 2; n <= 40; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_NEAR(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k),
                  1e-6 * binomial(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Math, LogBinomialMatchesBinomial) {
  EXPECT_NEAR(std::exp(log_binomial(64, 8)), binomial(64, 8),
              1e-6 * binomial(64, 8));
}

TEST(Math, FallingFactorial) {
  EXPECT_DOUBLE_EQ(falling_factorial(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(falling_factorial(10, 1), 10.0);
  EXPECT_DOUBLE_EQ(falling_factorial(10, 3), 720.0);
  EXPECT_DOUBLE_EQ(falling_factorial(64, 2), 64.0 * 63.0);
}

TEST(Math, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12, 1e-9));
  EXPECT_FALSE(approx_equal(1.0, 1.1, 1e-3));
  EXPECT_TRUE(approx_equal(0.0, 0.0, 1e-12));
}

TEST(Math, KahanSumBeatsNaiveAccumulation) {
  KahanSum kahan;
  double naive = 0.0;
  const double tiny = 1e-16;
  kahan.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 100000; ++i) {
    kahan.add(tiny);
    naive += tiny;
  }
  const double expected = 1.0 + 100000 * tiny;
  EXPECT_LE(std::abs(kahan.value() - expected),
            std::abs(naive - expected) + 1e-30);
  EXPECT_NEAR(kahan.value(), expected, 1e-18);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01 / rate);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), ContractViolation);
}

TEST(Rng, BelowIsUnbiasedAcrossRange) {
  Xoshiro256 rng(17);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (const int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, SplitmixMatchesReferenceVector) {
  // Published splitmix64 test vector: the first outputs from state 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454FULL);
}

TEST(Rng, StreamSeedsAreInjectiveOverChunkIndices) {
  // The derivation is a bijection of the stream index for a fixed base
  // seed, so any two distinct chunks get distinct streams. Check a
  // realistic chunk-index range exhaustively.
  std::set<std::uint64_t> seen;
  const int streams = 4096;
  for (int i = 0; i < streams; ++i) {
    seen.insert(stream_seed(0x5EEDULL, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(streams));
}

TEST(Rng, StreamSeedsDifferAcrossBaseSeeds) {
  std::set<std::uint64_t> seen;
  const int seeds = 512;
  for (int s = 0; s < seeds; ++s) {
    seen.insert(stream_seed(static_cast<std::uint64_t>(s), 3));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(seeds));
}

TEST(Rng, DistinctChunksProduceDistinctStreams) {
  // Generators seeded from adjacent chunk indices must not share a
  // prefix: compare the first 32 outputs pairwise across 64 streams.
  const int streams = 64;
  std::set<std::uint64_t> firsts;
  for (int i = 0; i < streams; ++i) {
    Xoshiro256 a(stream_seed(7, static_cast<std::uint64_t>(i)));
    Xoshiro256 b(stream_seed(7, static_cast<std::uint64_t>(i + 1)));
    firsts.insert(a());
    int matches = 0;
    for (int j = 0; j < 32; ++j) {
      if (a() == b()) ++matches;
    }
    EXPECT_LE(matches, 1) << "streams " << i << " and " << i + 1;
  }
  EXPECT_EQ(firsts.size(), static_cast<std::size_t>(streams));
}

TEST(Rng, StreamsAreStatisticallyUniformAcrossChunks) {
  // Treat the first uniform() of each derived stream as a sample: the
  // across-stream mean must match U(0,1) (catches a derivation that maps
  // many chunks into a low-entropy region).
  double sum = 0.0;
  const int streams = 20000;
  for (int i = 0; i < streams; ++i) {
    Xoshiro256 rng(stream_seed(99, static_cast<std::uint64_t>(i)));
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / streams, 0.5, 0.01);
}

TEST(Rng, ExponentialVarianceMatchesRate) {
  // Var[Exp(rate)] = 1/rate^2; with n = 200000 the sample variance of
  // the sample variance allows a ~2% band at 5 sigma.
  Xoshiro256 rng(23);
  const double rate = 2.0;
  const int n = 200000;
  double sum = 0.0, sum_squares = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(rate);
    sum += x;
    sum_squares += x * x;
  }
  const double mean = sum / n;
  const double variance = (sum_squares - n * mean * mean) / (n - 1);
  EXPECT_NEAR(mean, 1.0 / rate, 0.01 / rate);
  EXPECT_NEAR(variance, 1.0 / (rate * rate), 0.025 / (rate * rate));
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Format, Scientific) {
  EXPECT_EQ(sci(0.002, 3), "2.00e-03");
  EXPECT_EQ(sci(123456.0, 2), "1.2e+05");
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(512.0), "512 B");
  EXPECT_EQ(human_bytes(131072.0), "128 KiB");
  EXPECT_EQ(human_bytes(3e11), "300 GB");
  EXPECT_EQ(human_bytes(1e15), "1.00 PB");
}

TEST(Format, HumanHours) {
  EXPECT_EQ(human_hours(39.5), "39.5 h");
  EXPECT_NE(human_hours(1e7).find("yr"), std::string::npos);
  EXPECT_EQ(human_hours(0.0), "0.0 h");
  EXPECT_EQ(human_hours(0.05), "0.1 h");
  EXPECT_EQ(human_hours(0.0123), "1.23e-02 h");
  EXPECT_EQ(human_hours(3.6e-301), "3.60e-301 h");
}

TEST(Format, ParseIntAcceptsIntegralSpellingsAcrossTheIntRange) {
  EXPECT_EQ(parse_int("64", "test", "n").value(), 64);
  EXPECT_EQ(parse_int("-1", "test", "n").value(), -1);
  EXPECT_EQ(parse_int("1e3", "test", "n").value(), 1000);
  EXPECT_EQ(parse_int("2147483647", "test", "n").value(), 2147483647);
  EXPECT_EQ(parse_int("-2147483648", "test", "n").value(),
            std::numeric_limits<int>::min());
}

TEST(Format, ParseIntRejectsWithTypedInvalidParameter) {
  const struct {
    const char* text;
    const char* problem;
  } cases[] = {{"abc", "is not a number"},
               {"", "is not a number"},
               {"nan", "is not a number"},
               {"3.5", "is not an integer"},
               {"2147483648", "is outside the int range"},
               {"-2147483649", "is outside the int range"},
               {"1e20", "is outside the int range"},
               {"inf", "is outside the int range"}};
  for (const auto& c : cases) {
    const Expected<int> parsed = parse_int(c.text, "cli.args", "--jobs");
    ASSERT_FALSE(parsed.has_value()) << c.text;
    EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidParameter) << c.text;
    EXPECT_EQ(parsed.error().layer, "cli.args");
    EXPECT_EQ(parsed.error().detail,
              std::string("--jobs: '") + c.text + "' " + c.problem);
  }
}

}  // namespace
}  // namespace nsrel
