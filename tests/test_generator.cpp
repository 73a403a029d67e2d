/// \file test_generator.cpp
/// Behavioral tests of the workload generator beyond the suite-level bands:
/// access patterns must actually produce the locality profiles the app
/// models claim, because every paper result rests on them.

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>
#include <unordered_set>

#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

/// Builds a single-phase app spec for pattern isolation tests.
AppSpec one_phase(AccessPattern pat, std::uint64_t ws_bytes,
                  double zipf_alpha = 0.95) {
  AppSpec a;
  a.id = AppId::Launcher;
  a.name = "synthetic";
  PhaseSpec p;
  p.name = "only";
  p.pattern = pat;
  p.ws_bytes = ws_bytes;
  p.data_zipf_alpha = zipf_alpha;
  p.mean_phase_len = 1'000'000;  // never leave the phase
  p.services = {};               // pure user stream
  a.phases = {p};
  a.sched_tick_interval = 1ull << 60;  // no timer
  return a;
}

std::vector<Addr> data_lines(const Trace& t) {
  std::vector<Addr> out;
  for (const Access& a : t.accesses()) {
    if (!a.is_ifetch() && a.mode == Mode::User) out.push_back(line_addr(a.addr));
  }
  return out;
}

Trace gen(const AppSpec& spec, std::uint64_t n) {
  GeneratorConfig cfg;
  cfg.target_accesses = n;
  cfg.seed = 77;
  return generate_trace(spec, cfg);
}

TEST(Generator, StreamPatternCoversWorkingSetSequentially) {
  const Trace t = gen(one_phase(AccessPattern::Stream, 256ull << 10), 60'000);
  const auto lines = data_lines(t);
  ASSERT_GT(lines.size(), 1000u);
  // Consecutive data accesses advance by exactly one line (mod wraparound).
  std::size_t sequential = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    sequential += lines[i] == lines[i - 1] + kLineSize;
  }
  EXPECT_GT(static_cast<double>(sequential) /
                static_cast<double>(lines.size()),
            0.95);
}

TEST(Generator, StridePatternHasFixedStride) {
  AppSpec spec = one_phase(AccessPattern::Stride, 256ull << 10);
  spec.phases[0].stride_lines = 8;
  const Trace t = gen(spec, 60'000);
  const auto lines = data_lines(t);
  std::size_t strided = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    strided += lines[i] == lines[i - 1] + 8 * kLineSize;
  }
  EXPECT_GT(static_cast<double>(strided) / static_cast<double>(lines.size()),
            0.9);
}

TEST(Generator, ZipfPatternConcentratesOnHotLines) {
  const Trace t =
      gen(one_phase(AccessPattern::ZipfReuse, 1ull << 20, 1.0), 80'000);
  const auto lines = data_lines(t);
  std::unordered_map<Addr, std::uint64_t> counts;
  for (Addr l : lines) ++counts[l];
  // Top-1% of distinct lines must absorb a large share of the accesses.
  std::vector<std::uint64_t> freq;
  freq.reserve(counts.size());
  for (const auto& [l, n] : counts) freq.push_back(n);
  std::sort(freq.rbegin(), freq.rend());
  const std::size_t top = std::max<std::size_t>(1, freq.size() / 100);
  std::uint64_t hot = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    total += freq[i];
    if (i < top) hot += freq[i];
  }
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.15);
}

TEST(Generator, PointerChaseHasNoSpatialLocality) {
  const Trace t =
      gen(one_phase(AccessPattern::PointerChase, 1ull << 20), 60'000);
  const auto lines = data_lines(t);
  std::size_t adjacent = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto delta = lines[i] > lines[i - 1] ? lines[i] - lines[i - 1]
                                               : lines[i - 1] - lines[i];
    adjacent += delta <= 2 * kLineSize;
  }
  EXPECT_LT(static_cast<double>(adjacent) / static_cast<double>(lines.size()),
            0.05);
}

TEST(Generator, PatternsStayInsideWorkingSet) {
  for (AccessPattern pat :
       {AccessPattern::ZipfReuse, AccessPattern::Stream, AccessPattern::Stride,
        AccessPattern::PointerChase}) {
    const std::uint64_t ws = 128ull << 10;
    const Trace t = gen(one_phase(pat, ws), 30'000);
    std::unordered_set<Addr> distinct;
    for (Addr l : data_lines(t)) distinct.insert(l);
    EXPECT_LE(distinct.size(), ws / kLineSize)
        << "pattern " << static_cast<int>(pat) << " escaped its arena";
  }
}

TEST(Generator, PhaseTransitionsFollowMatrix) {
  // A two-phase app whose matrix forbids self-loops on phase 0 must
  // alternate arenas; verify both phase arenas are actually visited.
  AppSpec spec = one_phase(AccessPattern::Stream, 64ull << 10);
  PhaseSpec second = spec.phases[0];
  second.name = "second";
  spec.phases.push_back(second);
  spec.phases[0].mean_phase_len = 5'000;
  spec.phases[1].mean_phase_len = 5'000;
  spec.transitions = {{0.0, 1.0}, {1.0, 0.0}};  // strict alternation

  const Trace t = gen(spec, 100'000);
  // Phase arenas are 4 GB apart (kPhaseDataSlice); count both.
  std::unordered_set<std::uint64_t> arenas;
  for (const Access& a : t.accesses()) {
    if (!a.is_ifetch() && a.mode == Mode::User)
      arenas.insert(a.addr >> 32);
  }
  EXPECT_GE(arenas.size(), 2u);
}

TEST(Generator, SchedTickFiresAtConfiguredInterval) {
  AppSpec spec = one_phase(AccessPattern::ZipfReuse, 64ull << 10);
  spec.sched_tick_interval = 10'000;
  const Trace t = gen(spec, 100'000);
  const TraceSummary s = t.summarize();
  // Roughly one tick (~45 records) per 10k user records.
  EXPECT_GT(s.by_mode[1], 5u * 30u);
  EXPECT_LT(s.by_mode[1], 15u * 80u);
}

TEST(Generator, IfetchRatioMatchesSpec) {
  AppSpec spec = one_phase(AccessPattern::ZipfReuse, 64ull << 10);
  spec.phases[0].ifetch_per_data = 3.0;
  const Trace t = gen(spec, 60'000);
  std::uint64_t ifetch = 0;
  std::uint64_t data = 0;
  for (const Access& a : t.accesses()) {
    if (a.mode != Mode::User) continue;
    (a.is_ifetch() ? ifetch : data)++;
  }
  EXPECT_NEAR(static_cast<double>(ifetch) / static_cast<double>(data), 3.0,
              0.1);
}

TEST(Generator, StoreFractionMatchesSpec) {
  AppSpec spec = one_phase(AccessPattern::Stream, 128ull << 10);
  spec.phases[0].store_fraction = 0.4;
  const Trace t = gen(spec, 60'000);
  std::uint64_t writes = 0;
  std::uint64_t data = 0;
  for (const Access& a : t.accesses()) {
    if (a.mode != Mode::User || a.is_ifetch()) continue;
    ++data;
    writes += a.is_write();
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(data), 0.4,
              0.03);
}

// ---- absolute byte pins ---------------------------------------------------
//
// The tests above check behaviour; these pin the exact bytes. Every result
// the repo reports is a function of these traces, so any change to the
// generators or to Rng/ZipfSampler (even a "faster but equivalent" one) must
// leave these digests unchanged.

TEST(GeneratorGolden, AppTraceBytesArePinned) {
  constexpr std::array<std::uint64_t, kAppCount> kGolden = {
      0xc2d10dddd335f990ull,  // launcher
      0x07de18776045090full,  // browser
      0xab3c0a974305dde6ull,  // game
      0x084b52e00f33eba1ull,  // video
      0x06f389f062f14576ull,  // audio
      0xb76bc3c8f4613dafull,  // email
      0x8d049697d92bd791ull,  // maps
      0x1f45aa3935e95cd9ull,  // social
      0xccd0f185fb077fdeull,  // fft
      0x718927399387a586ull,  // matmul
      0xabfc88312a9310e5ull,  // camera
      0xe26287f6eb638076ull,  // messenger
  };
  for (int i = 0; i < kAppCount; ++i) {
    const auto id = static_cast<AppId>(i);
    EXPECT_EQ(hash_trace(generate_app_trace(id, 50'000, 42)), kGolden[i])
        << app_name(id);
  }
}

TEST(GeneratorGolden, FleetSessionBytesArePinned) {
  constexpr std::array<std::uint64_t, 8> kGolden = {
      0xc2166866d736b714ull, 0x6e014461227c15ddull, 0x26077cbcba89a756ull,
      0x341e427fd9c2773cull, 0xdea78cef5c251063ull, 0xb20663618f817f97ull,
      0x4b5866477ed613ffull, 0xa2360d539c51ee9cull,
  };
  const PopulationModel mix = PopulationModel::default_mix(50'000);
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    ScenarioStream stream(sample_session(mix, sweep_point_seed(42, i)));
    EXPECT_EQ(hash_trace(materialize(stream)), kGolden[i]) << "session " << i;
  }
}

}  // namespace
}  // namespace mobcache
