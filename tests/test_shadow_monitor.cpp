/// The utility-monitor use of ShadowConfigBatch: one lane, fed the set index
/// of the array it shadows, as the dynamic partition controllers run it.
#include "cache/config_batch.hpp"

#include <gtest/gtest.h>

namespace mobcache {
namespace {

/// A one-lane monitor over `num_sets` sets with `depth`-deep stacks.
ShadowConfigBatch monitor(std::uint32_t num_sets, std::uint32_t sample_shift,
                          std::uint32_t depth) {
  return ShadowConfigBatch({{num_sets, depth}}, sample_shift);
}

TEST(ShadowMonitor, StackHitDepths) {
  // Unsampled shift (0) → every set monitored, scale factor 1.
  ShadowConfigBatch m = monitor(4, /*sample_shift=*/0, /*depth=*/4);
  const Addr a = 0x1000;
  const Addr b = 0x2000;
  const Addr c = 0x3000;

  m.observe(a, 0);  // miss
  m.observe(b, 0);  // miss
  m.observe(c, 0);  // miss
  // Stack (MRU→LRU): c b a. Accessing a hits at depth 2.
  m.observe(a, 0);
  EXPECT_EQ(m.hits_with_ways(0, 2), 0u);
  EXPECT_EQ(m.hits_with_ways(0, 3), 1u);

  // a is MRU now; accessing it again hits at depth 0.
  m.observe(a, 0);
  EXPECT_EQ(m.hits_with_ways(0, 1), 1u);
  EXPECT_EQ(m.hits_with_ways(0, 4), 2u);
}

TEST(ShadowMonitor, HitsMonotoneInWays) {
  ShadowConfigBatch m = monitor(8, 0, 8);
  for (int round = 0; round < 3; ++round) {
    for (Addr i = 0; i < 6; ++i) m.observe(0x100 * (i + 1), 2);
  }
  std::uint64_t prev = 0;
  for (std::uint32_t w = 1; w <= 8; ++w) {
    EXPECT_GE(m.hits_with_ways(0, w), prev);
    prev = m.hits_with_ways(0, w);
  }
}

TEST(ShadowMonitor, StackDepthBounded) {
  ShadowConfigBatch m = monitor(2, 0, 2);
  // Three distinct lines through a 2-deep stack: the first falls out.
  m.observe(0x100, 0);
  m.observe(0x200, 0);
  m.observe(0x300, 0);
  m.observe(0x100, 0);  // must be a miss (fell off)
  EXPECT_EQ(m.hits_with_ways(0, 2), 0u);
}

TEST(ShadowMonitor, SamplingScalesCounts) {
  // shift=2 → 1 in 4 sets sampled, counts scaled ×4.
  ShadowConfigBatch m = monitor(8, 2, 4);
  m.observe(0x40, /*set=*/0);  // sampled
  m.observe(0x40, /*set=*/0);  // hit at depth 0
  m.observe(0x80, /*set=*/1);  // not sampled
  EXPECT_EQ(m.hits_with_ways(0, 4), 4u);    // one hit × scale 4
  EXPECT_EQ(m.observed_accesses(0), 8u);  // two sampled accesses × 4
}

TEST(ShadowMonitor, UnsampledSetsIgnored) {
  ShadowConfigBatch m = monitor(8, 3, 4);  // only set 0 sampled out of each 8
  for (std::uint32_t s = 1; s < 8; ++s) m.observe(0x1000 + s, s);
  EXPECT_EQ(m.observed_accesses(0), 0u);
}

TEST(ShadowMonitor, NewEpochClearsCountersKeepsStacks) {
  ShadowConfigBatch m = monitor(4, 0, 4);
  m.observe(0x500, 0);
  m.observe(0x500, 0);
  EXPECT_EQ(m.hits_with_ways(0, 4), 1u);

  m.new_epoch();
  EXPECT_EQ(m.hits_with_ways(0, 4), 0u);
  EXPECT_EQ(m.observed_accesses(0), 0u);

  // The stack stayed warm: the very next access to the same line hits.
  m.observe(0x500, 0);
  EXPECT_EQ(m.hits_with_ways(0, 1), 1u);
}

TEST(ShadowMonitor, DepthClampInQuery) {
  ShadowConfigBatch m = monitor(4, 0, 4);
  m.observe(0x1, 0);
  m.observe(0x1, 0);
  EXPECT_EQ(m.hits_with_ways(0, 100), m.hits_with_ways(0, 4));
}

}  // namespace
}  // namespace mobcache
