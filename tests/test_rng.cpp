#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "workload/kernel_model.hpp"

namespace mobcache {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricAtLeastOneAndMeanMatches) {
  Rng rng(23);
  const double p = 0.01;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.geometric(p);
    ASSERT_GE(v, 1u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 1.0 / p, 0.05 / p);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 2.0);
}

TEST(Rng, WeightedrespectsWeights) {
  Rng rng(31);
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) ++counts[rng.weighted({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedZeroWeightNeverPicked) {
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) EXPECT_NE(rng.weighted({1.0, 0.0, 1.0}), 1u);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, FirstItemMostPopularAndAllInRange) {
  const double alpha = GetParam();
  ZipfSampler z(64, alpha);
  Rng rng(41);
  std::array<int, 64> counts{};
  for (int i = 0; i < 60000; ++i) {
    const std::size_t s = z.sample(rng);
    ASSERT_LT(s, 64u);
    ++counts[s];
  }
  // Item 0 must dominate every distant item under any positive skew.
  EXPECT_GT(counts[0], counts[32]);
  EXPECT_GT(counts[0], counts[63]);
  // Overall counts must be monotone-ish: head quarter beats tail quarter.
  int head = 0;
  int tail = 0;
  for (int i = 0; i < 16; ++i) head += counts[i];
  for (int i = 48; i < 64; ++i) tail += counts[i];
  EXPECT_GT(head, tail);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 2.0));

TEST(Zipf, SingleItem) {
  ZipfSampler z(1, 1.0);
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, ZeroSizeDegradesToSingleton) {
  ZipfSampler z(0, 1.0);
  Rng rng(47);
  EXPECT_EQ(z.size(), 1u);
  EXPECT_EQ(z.sample(rng), 0u);
}

// A plain CDF built with the sampler's own arithmetic: the guide-table
// sampler must return exactly its lower_bound index.
std::size_t reference_sample(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

std::vector<double> reference_cdf(std::size_t n, double alpha) {
  std::vector<double> cdf(n == 0 ? 1 : n);
  double sum = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

TEST(Zipf, GuideTableMatchesFullBinarySearch) {
  for (const std::size_t n : {0, 1, 2, 3, 64, 192, 16384, 65536}) {
    for (const double alpha : {0.5, 0.8, 0.9, 1.1, 2.0}) {
      const ZipfSampler z(n, alpha);
      const std::vector<double> cdf = reference_cdf(n, alpha);
      ASSERT_EQ(z.size(), cdf.size());
      Rng rng(n * 131 + static_cast<std::uint64_t>(alpha * 10));
      Rng shadow = rng;  // replays the sampler's uniform() draws
      for (int i = 0; i < 20'000; ++i) {
        ASSERT_EQ(z.sample(rng), reference_sample(cdf, shadow.uniform()))
            << "n=" << n << " alpha=" << alpha << " draw " << i;
      }
    }
  }
}

TEST(Zipf, ConcurrentConstructionDrawsIdenticalSequences) {
  constexpr int kThreads = 4;
  std::vector<std::vector<std::size_t>> zipf_draws(kThreads);
  std::vector<std::vector<Addr>> kernel_addrs(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Start together, so the threads race on the shared tables' first
      // construction.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      const ZipfSampler z(65536, 0.8);
      KernelModel km(7);
      Rng rng(99);
      for (int i = 0; i < 5'000; ++i) zipf_draws[t].push_back(z.sample(rng));
      std::vector<Access> out;
      for (int s = 0; s < kKernelServiceCount; ++s) {
        km.emit_episode(static_cast<KernelService>(s), 0, out, rng);
      }
      for (const Access& a : out) kernel_addrs[t].push_back(a.addr);
    });
  }
  for (std::thread& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(zipf_draws[t], zipf_draws[0]) << "thread " << t;
    EXPECT_EQ(kernel_addrs[t], kernel_addrs[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace mobcache
