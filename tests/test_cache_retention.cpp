#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hpp"

namespace mobcache {
namespace {

CacheConfig cfg() {
  CacheConfig c;
  c.name = "stt";
  c.size_bytes = 16ull << 10;
  c.assoc = 4;
  return c;
}

TEST(Retention, ZeroPeriodNeverExpires) {
  SetAssocCache c(cfg());
  c.set_retention_period(0);
  c.access(0, AccessType::Read, Mode::User, 1);
  EXPECT_TRUE(c.contains(0, 1'000'000'000'000ull));
  auto [total, dirty] = c.expire_sweep(1'000'000'000'000ull);
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(dirty, 0u);
}

TEST(Retention, BlockExpiresAfterPeriod) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Read, Mode::User, 10);
  EXPECT_TRUE(c.contains(0, 109));
  EXPECT_FALSE(c.contains(0, 110));  // deadline = fill + period

  auto r = c.access(0, AccessType::Read, Mode::User, 200);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.target_expired);
  EXPECT_FALSE(r.expired_was_dirty);
  EXPECT_EQ(c.stats().expired_blocks, 1u);
}

TEST(Retention, DirtyExpiryFlagged) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Write, Mode::User, 10);
  auto r = c.access(0, AccessType::Read, Mode::User, 500);
  EXPECT_TRUE(r.target_expired);
  EXPECT_TRUE(r.expired_was_dirty);
  EXPECT_EQ(c.stats().expired_dirty, 1u);
}

TEST(Retention, StoreHitExtendsDeadline) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Read, Mode::User, 10);   // deadline 110
  c.access(0, AccessType::Write, Mode::User, 100);  // deadline 200
  EXPECT_TRUE(c.contains(0, 150));
  EXPECT_TRUE(c.contains(0, 199));
  EXPECT_FALSE(c.contains(0, 200));
}

TEST(Retention, ReadHitDoesNotExtendDeadline) {
  // STT-RAM reads are non-destructive but also non-restorative: retention
  // counts from the last *write*.
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Read, Mode::User, 10);  // deadline 110
  c.access(0, AccessType::Read, Mode::User, 90);
  EXPECT_FALSE(c.contains(0, 110));
}

TEST(Retention, RefreshBlockExtendsDeadlineAndCounts) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Read, Mode::User, 10);
  const std::uint32_t set = c.set_index(0);
  c.refresh_block(set, 0, 100);  // new deadline 200
  EXPECT_TRUE(c.contains(0, 150));
  EXPECT_FALSE(c.contains(0, 200));
  EXPECT_EQ(c.stats().refreshes, 1u);
}

TEST(Retention, RefreshInvalidBlockIsNoop) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.refresh_block(0, 0, 5);
  EXPECT_EQ(c.stats().refreshes, 0u);
}

TEST(Retention, ExpireSweepInvalidatesAndCounts) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  c.access(0, AccessType::Write, Mode::User, 0);                    // dirty
  c.access(kLineSize, AccessType::Read, Mode::User, 0);             // clean
  c.access(2 * kLineSize, AccessType::Read, Mode::User, 80);        // young

  auto [total, dirty] = c.expire_sweep(150);
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(dirty, 1u);
  EXPECT_EQ(c.occupancy(full_way_mask(4), 150), 1u);
  EXPECT_TRUE(c.contains(2 * kLineSize, 150));
}

TEST(Retention, ExpiredWayIsReusedByFill) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  const std::uint32_t sets = c.num_sets();
  // Fill all 4 ways of set 0; let them expire; a new fill must reuse an
  // expired way without evicting anything live.
  for (std::uint64_t i = 0; i < 4; ++i)
    c.access(i * sets * kLineSize, AccessType::Read, Mode::User, 1);
  auto r = c.access(4 * sets * kLineSize, AccessType::Read, Mode::User, 500);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.filled);
  EXPECT_FALSE(r.evicted_valid) << "expired blocks are not live victims";
}

TEST(Retention, EvictionObserverSeesExpiry) {
  SetAssocCache c(cfg());
  c.set_retention_period(100);
  int events = 0;
  c.add_eviction_observer([&](const EvictionEvent&) { ++events; });
  c.access(0, AccessType::Read, Mode::User, 0);
  c.expire_sweep(1000);
  EXPECT_EQ(events, 1);
}

}  // namespace
}  // namespace mobcache
