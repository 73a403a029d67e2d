#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/content_hash.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

Access make(Addr addr, AccessType t, Mode m) {
  Access a;
  a.addr = addr;
  a.type = t;
  a.mode = m;
  return a;
}

TEST(Types, LineAddrMasksOffset) {
  EXPECT_EQ(line_addr(0x1000), 0x1000u);
  EXPECT_EQ(line_addr(0x103f), 0x1000u);
  EXPECT_EQ(line_addr(0x1040), 0x1040u);
}

TEST(Types, KernelAddressPredicate) {
  EXPECT_FALSE(is_kernel_addr(0x1000));
  EXPECT_FALSE(is_kernel_addr(0x7fff'ffff'ffffull));
  EXPECT_TRUE(is_kernel_addr(kKernelSpaceBase));
  EXPECT_TRUE(is_kernel_addr(~0ull));
}

TEST(Trace, SummarizeCountsByModeAndType) {
  Trace t("demo");
  t.push(make(0x100, AccessType::Read, Mode::User));
  t.push(make(0x140, AccessType::Write, Mode::User));
  t.push(make(kKernelSpaceBase + 0x40, AccessType::Read, Mode::Kernel));
  t.push(make(kKernelSpaceBase + 0x40, AccessType::InstFetch, Mode::Kernel));

  const TraceSummary s = t.summarize();
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.by_mode[0], 2u);
  EXPECT_EQ(s.by_mode[1], 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.ifetches, 1u);
  EXPECT_DOUBLE_EQ(s.kernel_fraction(), 0.5);
}

TEST(Trace, DistinctLinesPerMode) {
  Trace t;
  // Two accesses in the same user line, one in another.
  t.push(make(0x100, AccessType::Read, Mode::User));
  t.push(make(0x104, AccessType::Read, Mode::User));
  t.push(make(0x240, AccessType::Read, Mode::User));
  t.push(make(kKernelSpaceBase, AccessType::Read, Mode::Kernel));
  const TraceSummary s = t.summarize();
  EXPECT_EQ(s.distinct_lines_user, 2u);
  EXPECT_EQ(s.distinct_lines_kernel, 1u);
}

TEST(Trace, EmptySummary) {
  Trace t;
  const TraceSummary s = t.summarize();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.kernel_fraction(), 0.0);
}

TEST(Trace, ModeConsistencyHolds) {
  Trace t;
  t.push(make(0x100, AccessType::Read, Mode::User));
  t.push(make(kKernelSpaceBase + 0x80, AccessType::Write, Mode::Kernel));
  EXPECT_TRUE(t.modes_consistent_with_addresses());
}

TEST(Trace, ModeConsistencyViolationDetected) {
  Trace t;
  t.push(make(kKernelSpaceBase + 0x80, AccessType::Read, Mode::User));
  EXPECT_FALSE(t.modes_consistent_with_addresses());

  Trace t2;
  t2.push(make(0x100, AccessType::Read, Mode::Kernel));
  EXPECT_FALSE(t2.modes_consistent_with_addresses());
}

TEST(Trace, AccessHelpers) {
  EXPECT_TRUE(make(0, AccessType::InstFetch, Mode::User).is_ifetch());
  EXPECT_TRUE(make(0, AccessType::Write, Mode::User).is_write());
  EXPECT_FALSE(make(0, AccessType::Read, Mode::User).is_write());
}

TEST(Trace, NameAndIndexing) {
  Trace t("browser");
  EXPECT_EQ(t.name(), "browser");
  EXPECT_TRUE(t.empty());
  t.push(make(0x40, AccessType::Read, Mode::User));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].addr, 0x40u);
}

// ---- fingerprint memo ------------------------------------------------------

/// From-scratch fingerprint, independent of Trace's memo: the field order
/// the result-store key contract pins.
std::uint64_t recompute(const Trace& t) {
  ContentHasher h;
  h.mix(t.name());
  h.mix(static_cast<std::uint64_t>(t.size()));
  for (const Access& a : t.accesses()) {
    h.mix(a.addr);
    h.mix(static_cast<std::uint64_t>(a.thread) |
          (static_cast<std::uint64_t>(a.type) << 16) |
          (static_cast<std::uint64_t>(a.mode) << 24));
  }
  return h.digest();
}

TEST(TraceFingerprint, MatchesRecomputeOnGeneratedTraces) {
  for (AppId id : {AppId::Launcher, AppId::Browser, AppId::Camera}) {
    const Trace t = generate_app_trace(id, 20'000, 42);
    const std::uint64_t first = t.fingerprint();
    EXPECT_EQ(first, recompute(t)) << t.name();
    EXPECT_EQ(t.fingerprint(), first) << t.name();  // memo read
  }
}

TEST(TraceFingerprint, EmptyTraceMatchesRecompute) {
  const Trace unnamed;
  EXPECT_EQ(unnamed.fingerprint(), recompute(unnamed));
  const Trace named("idle");
  EXPECT_EQ(named.fingerprint(), recompute(named));
  EXPECT_NE(named.fingerprint(), unnamed.fingerprint());
}

TEST(TraceFingerprint, EveryMutatorInvalidatesTheMemo) {
  const Access extra = make(0x80, AccessType::Write, Mode::User);
  Trace t = generate_app_trace(AppId::Email, 5'000, 3);

  std::uint64_t before = t.fingerprint();
  t.push(extra);
  EXPECT_EQ(t.fingerprint(), recompute(t)) << "push";
  EXPECT_NE(t.fingerprint(), before) << "push";

  before = t.fingerprint();
  t.append(std::vector<Access>{extra, extra});
  EXPECT_EQ(t.fingerprint(), recompute(t)) << "append(vector&&)";
  EXPECT_NE(t.fingerprint(), before) << "append(vector&&)";

  before = t.fingerprint();
  const std::vector<Access> chunk{extra};
  t.append(std::span<const Access>(chunk));
  EXPECT_EQ(t.fingerprint(), recompute(t)) << "append(span)";
  EXPECT_NE(t.fingerprint(), before) << "append(span)";

  before = t.fingerprint();
  t.set_name("renamed");
  EXPECT_EQ(t.fingerprint(), recompute(t)) << "set_name";
  EXPECT_NE(t.fingerprint(), before) << "set_name";
}

TEST(TraceFingerprint, AppendAdoptingIntoEmptyTraceInvalidates) {
  Trace t("adopt");
  const std::uint64_t empty = t.fingerprint();
  t.append(std::vector<Access>{make(0x40, AccessType::Read, Mode::User)});
  EXPECT_EQ(t.fingerprint(), recompute(t));
  EXPECT_NE(t.fingerprint(), empty);
}

TEST(TraceFingerprint, CopyKeepsValueMoveLeavesSourceHonest) {
  Trace t = generate_app_trace(AppId::Maps, 5'000, 9);
  const std::uint64_t fp = t.fingerprint();

  const Trace copied(t);
  EXPECT_EQ(copied.fingerprint(), fp);
  Trace assigned;
  assigned = t;
  EXPECT_EQ(assigned.fingerprint(), fp);

  // A moved-from trace must report its actual content, not the old memo.
  Trace moved(std::move(t));
  EXPECT_EQ(moved.fingerprint(), fp);
  EXPECT_EQ(t.fingerprint(), recompute(t));
  EXPECT_NE(t.fingerprint(), fp);

  Trace move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint(), fp);
  EXPECT_EQ(moved.fingerprint(), recompute(moved));
  EXPECT_NE(moved.fingerprint(), fp);
}

TEST(TraceFingerprint, ConcurrentFirstCallsAgree) {
  constexpr int kThreads = 8;
  const Trace shared = generate_app_trace(AppId::Game, 50'000, 11);
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::atomic<int> arrived{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      // Start together, so the threads race on the first computation.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      seen[i] = shared.fingerprint();
    });
  }
  for (std::thread& th : pool) th.join();
  const std::uint64_t want = recompute(shared);
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(seen[i], want) << "thread " << i;
}

}  // namespace
}  // namespace mobcache
