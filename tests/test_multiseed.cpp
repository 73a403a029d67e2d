#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "sim/batch.hpp"

namespace mobcache {
namespace {

TEST(MultiSeed, AggregatesAcrossSeeds) {
  const auto results = run_multi_seed(
      {AppId::Launcher}, 60'000, {1, 2, 3},
      {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  ASSERT_EQ(results.size(), 2u);

  // The baseline normalizes to exactly 1.0 for every seed.
  EXPECT_NEAR(results[0].cache_energy.mean, 1.0, 1e-12);
  EXPECT_NEAR(results[0].cache_energy.stddev, 0.0, 1e-12);
  EXPECT_NEAR(results[0].exec_time.mean, 1.0, 1e-12);

  // The design varies across seeds but stays well below the baseline.
  const MultiSeedResult& mrstt = results[1];
  EXPECT_LT(mrstt.cache_energy.max, 0.6);
  EXPECT_LE(mrstt.cache_energy.min, mrstt.cache_energy.mean);
  EXPECT_LE(mrstt.cache_energy.mean, mrstt.cache_energy.max);
  EXPECT_GE(mrstt.cache_energy.stddev, 0.0);
}

TEST(MultiSeed, SingleSeedHasZeroSpread) {
  const auto results = run_multi_seed({AppId::AudioPlayer}, 50'000, {7},
                                      {SchemeKind::BaselineSram,
                                       SchemeKind::ShrunkSram});
  EXPECT_EQ(results[1].cache_energy.stddev, 0.0);
  EXPECT_EQ(results[1].cache_energy.min, results[1].cache_energy.max);
}

TEST(MultiSeed, DeterministicGivenSameSeeds) {
  const auto a = run_multi_seed({AppId::Email}, 50'000, {5, 6},
                                {SchemeKind::BaselineSram,
                                 SchemeKind::DynamicStt});
  const auto b = run_multi_seed({AppId::Email}, 50'000, {5, 6},
                                {SchemeKind::BaselineSram,
                                 SchemeKind::DynamicStt});
  EXPECT_DOUBLE_EQ(a[1].cache_energy.mean, b[1].cache_energy.mean);
  EXPECT_DOUBLE_EQ(a[1].exec_time.stddev, b[1].exec_time.stddev);
}

TEST(MultiSeed, OneFrontEndPassPerSeedAndWorkload) {
  // Each seed is one grid over its schemes, so every (seed, workload) runs
  // its L1 front end once: 2 seeds x 2 apps = 4 passes, not one per scheme.
  const std::vector<SchemeKind> schemes = {SchemeKind::BaselineSram,
                                           SchemeKind::StaticPartMrstt,
                                           SchemeKind::DynamicStt};
  std::vector<std::vector<MultiSeedResult>> runs;
  for (unsigned jobs : {1u, 2u}) {
    const std::uint64_t before = front_end_passes();
    runs.push_back(run_multi_seed({AppId::Launcher, AppId::Email}, 20'000,
                                  {3, 4}, schemes, {}, jobs));
    EXPECT_EQ(front_end_passes() - before, 4u) << "jobs=" << jobs;
  }
  ASSERT_EQ(runs[0].size(), schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_EQ(runs[0][i].cache_energy.mean, runs[1][i].cache_energy.mean);
    EXPECT_EQ(runs[0][i].exec_time.stddev, runs[1][i].exec_time.stddev);
  }
}

}  // namespace
}  // namespace mobcache
