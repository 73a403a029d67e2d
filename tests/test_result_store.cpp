#include "exp/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "energy/technology.hpp"
#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "support/scoped_dir.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

/// Per-test store directory, removed with the fixture.
class ResultStoreTest : public ::testing::Test {
 protected:
  std::string dir() const { return tmp_.path().string(); }

  ScopedDir tmp_{"store"};
};

/// A SimResult exercising the awkward corners of the record format: doubles
/// that do not round-trip at low precision, zeros, and large counters.
SimResult sample_result() {
  SimResult r;
  r.workload = "launcher";
  r.scheme = "SP-MRSTT";
  r.records = 123456789;
  r.cycles = 987654321;
  r.cpi = 1.0 / 3.0;
  r.l1i.accesses[0] = 11;
  r.l1d.accesses[1] = 22;
  r.l2.accesses[0] = 1000;
  r.l2.hits[0] = 900;
  r.l2.expired_blocks = 7;
  r.l2_energy.leakage_nj = 0.1;  // not exactly representable
  r.l2_energy.read_nj = 1e-17;
  r.l2_energy.write_nj = 12345.6789012345678;
  r.l2_energy.dram_nj = 3.0e17;
  r.l1_energy_nj = 2.5;
  r.l2_capacity_bytes = 2ull << 20;
  r.l2_avg_enabled_bytes = 1310720.5;
  r.l2_quarantined_ways = 3;
  r.stall_l2_hit_cycles = 42;
  r.stall_l2_miss_cycles = 4242;
  r.prefetches_issued = 5;
  return r;
}

void expect_equal(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.cycles, b.cycles);
  // Bit-exact, not approximate: resumed sweeps must be byte-identical.
  EXPECT_EQ(a.cpi, b.cpi);
  EXPECT_EQ(a.l1i.accesses[0], b.l1i.accesses[0]);
  EXPECT_EQ(a.l1d.accesses[1], b.l1d.accesses[1]);
  EXPECT_EQ(a.l2.accesses[0], b.l2.accesses[0]);
  EXPECT_EQ(a.l2.hits[0], b.l2.hits[0]);
  EXPECT_EQ(a.l2.expired_blocks, b.l2.expired_blocks);
  EXPECT_EQ(a.l2_energy.leakage_nj, b.l2_energy.leakage_nj);
  EXPECT_EQ(a.l2_energy.read_nj, b.l2_energy.read_nj);
  EXPECT_EQ(a.l2_energy.write_nj, b.l2_energy.write_nj);
  EXPECT_EQ(a.l2_energy.dram_nj, b.l2_energy.dram_nj);
  EXPECT_EQ(a.l1_energy_nj, b.l1_energy_nj);
  EXPECT_EQ(a.l2_capacity_bytes, b.l2_capacity_bytes);
  EXPECT_EQ(a.l2_avg_enabled_bytes, b.l2_avg_enabled_bytes);
  EXPECT_EQ(a.l2_quarantined_ways, b.l2_quarantined_ways);
  EXPECT_EQ(a.stall_l2_hit_cycles, b.stall_l2_hit_cycles);
  EXPECT_EQ(a.stall_l2_miss_cycles, b.stall_l2_miss_cycles);
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued);
}

TEST(ContentHasherTest, StableAndOrderSensitive) {
  const std::uint64_t a =
      ContentHasher().mix(std::uint64_t{1}).mix(std::uint64_t{2}).digest();
  const std::uint64_t b =
      ContentHasher().mix(std::uint64_t{1}).mix(std::uint64_t{2}).digest();
  const std::uint64_t c =
      ContentHasher().mix(std::uint64_t{2}).mix(std::uint64_t{1}).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Length-prefixed strings: ("ab","c") must not collide with ("a","bc").
  EXPECT_NE(
      ContentHasher().mix(std::string("ab")).mix(std::string("c")).digest(),
      ContentHasher().mix(std::string("a")).mix(std::string("bc")).digest());
  // Doubles hash by bit pattern, so the sign of zero matters.
  EXPECT_NE(ContentHasher().mix(0.0).digest(),
            ContentHasher().mix(-0.0).digest());
}

TEST(ContentHasherTest, KeyComponentsAllMatter) {
  const std::uint64_t base = result_point_key(1, 2, 3, 4, 5);
  EXPECT_EQ(base, result_point_key(1, 2, 3, 4, 5));
  EXPECT_NE(base, result_point_key(9, 2, 3, 4, 5));
  EXPECT_NE(base, result_point_key(1, 9, 3, 4, 5));
  EXPECT_NE(base, result_point_key(1, 2, 9, 4, 5));
  EXPECT_NE(base, result_point_key(1, 2, 3, 9, 5));
  EXPECT_NE(base, result_point_key(1, 2, 3, 4, 9));
}

TEST(ContentHasherTest, CacheConfigNameIsCosmetic) {
  CacheConfig a;
  CacheConfig b = a;
  b.name = "renamed";
  EXPECT_EQ(hash_cache_config(a), hash_cache_config(b));
  b.size_bytes *= 2;
  EXPECT_NE(hash_cache_config(a), hash_cache_config(b));
}

TEST(ContentHasherTest, SchemeParamsFaultFieldsAreKeyed) {
  SchemeParams a;
  SchemeParams b = a;
  EXPECT_EQ(hash_scheme_params(a), hash_scheme_params(b));
  b.fault.seed += 1;
  EXPECT_NE(hash_scheme_params(a), hash_scheme_params(b));
}

TEST(ContentHasherTest, TechnologyPerturbationChangesKey) {
  TechnologyConfig a;
  TechnologyConfig b = a;
  EXPECT_EQ(hash_technology(a), hash_technology(b));
  b.stt_leak_factor *= 2.0;
  EXPECT_NE(hash_technology(a), hash_technology(b));
}

TEST(ContentHasherTest, TraceFingerprintSeesEveryRecord) {
  const Trace t1 = generate_app_trace(AppId::Launcher, 2000, 1);
  const Trace t2 = generate_app_trace(AppId::Launcher, 2000, 1);
  const Trace t3 = generate_app_trace(AppId::Launcher, 2000, 2);
  // Note: nearby target lengths can land on the same episode boundary and
  // generate the *identical* trace, so the length probe doubles the target.
  const Trace t4 = generate_app_trace(AppId::Launcher, 4000, 1);
  EXPECT_EQ(hash_trace(t1), hash_trace(t2));
  EXPECT_NE(hash_trace(t1), hash_trace(t3));
  EXPECT_NE(hash_trace(t1), hash_trace(t4));
}

TEST(RecordFormat, ExactRoundTrip) {
  const SimResult r = sample_result();
  const std::string json = result_to_record_json(r);
  const std::optional<SimResult> back = result_from_record_json(json);
  ASSERT_TRUE(back.has_value());
  expect_equal(r, *back);
}

TEST(RecordFormat, RejectsTruncationAndGarbage) {
  const std::string json = result_to_record_json(sample_result());
  EXPECT_FALSE(result_from_record_json("").has_value());
  EXPECT_FALSE(result_from_record_json("{}").has_value());
  EXPECT_FALSE(
      result_from_record_json(json.substr(0, json.size() / 2)).has_value());
}

TEST_F(ResultStoreTest, StoreThenLookupAcrossReopen) {
  const SimResult r = sample_result();
  {
    ResultStore store(dir());
    EXPECT_FALSE(store.lookup(42).has_value());
    store.store(42, r);
    const auto hit = store.lookup(42);
    ASSERT_TRUE(hit.has_value());
    expect_equal(r, *hit);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().stores, 1u);
  }
  // A fresh process (modeled by a fresh object) must see the record.
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt_skipped, 0u);
  const auto hit = reopened.lookup(42);
  ASSERT_TRUE(hit.has_value());
  expect_equal(r, *hit);
}

TEST_F(ResultStoreTest, NoTempLeftoversAndStrayTempsAreCleaned) {
  {
    ResultStore store(dir());
    store.store(1, sample_result());
    store.store(2, sample_result());
  }
  for (const auto& e : fs::directory_iterator(dir()))
    EXPECT_EQ(e.path().filename().string().rfind(".tmp-", 0),
              std::string::npos)
        << "temp file survived: " << e.path();

  // A crash mid-write leaves a .tmp- file; opening the store removes it.
  std::ofstream(fs::path(dir()) / ".tmp-crashed") << "partial";
  ResultStore reopened(dir());
  EXPECT_FALSE(fs::exists(fs::path(dir()) / ".tmp-crashed"));
  EXPECT_EQ(reopened.stats().loaded, 2u);
}

TEST_F(ResultStoreTest, CorruptRecordIsSkippedAndRecomputed) {
  std::string victim;
  {
    ResultStore store(dir());
    store.store(7, sample_result());
    store.store(8, sample_result());
  }
  for (const auto& e : fs::directory_iterator(dir())) {
    victim = e.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());

  // Flip one payload byte: the checksum must reject the record.
  std::string contents;
  {
    std::ifstream in(victim);
    std::stringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  contents[contents.size() / 2] ^= 0x01;
  std::ofstream(victim, std::ios::trunc) << contents;

  ResultStore store(dir());
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_EQ(store.stats().loaded, 1u);
  // The corrupt key misses; storing it again repairs the store.
  const bool hit7 = store.lookup(7).has_value();
  const bool hit8 = store.lookup(8).has_value();
  EXPECT_NE(hit7, hit8);  // exactly one survived
  store.store(hit7 ? 8 : 7, sample_result());
  ResultStore repaired(dir());
  EXPECT_EQ(repaired.stats().loaded, 2u);
  EXPECT_EQ(repaired.stats().corrupt_skipped, 0u);
}

/// The two ways ExperimentRunner::run_designs_outcomes computes a missing
/// cell: replayed from the workload's shared L1 front end (default options),
/// or one simulate() per cell (an inclusive L2 cannot share the front end).
/// The store behaviour under test must not depend on which one runs.
struct CellStrategy {
  const char* name;
  bool inclusive_l2;
};
constexpr CellStrategy kCellStrategies[] = {{"shared", false},
                                            {"per-cell", true}};

ExperimentRunner strategy_runner(const CellStrategy& st, ResultStore* store,
                                 std::vector<AppId> apps = {AppId::Launcher,
                                                            AppId::Email}) {
  ExperimentRunner r(std::move(apps), 5000, 42);
  r.sim_options.hierarchy.inclusive_l2 = st.inclusive_l2;
  r.result_store = store;
  return r;
}

/// scheme_design(kind) whose builder counts its calls (one per computed
/// cell) and throws NumericError("injected") while `*fail` is set.
DesignSpec counted_design(SchemeKind kind, int& builds,
                          const bool* fail = nullptr) {
  DesignSpec d = scheme_design(kind);
  d.build = [kind, &builds, fail] {
    ++builds;
    if (fail != nullptr && *fail) throw NumericError("injected");
    return build_scheme(kind);
  };
  return d;
}

TEST_F(ResultStoreTest, TruncatedRecordIsCorrupt) {
  {
    ResultStore store(dir());
    store.store(9, sample_result());
  }
  std::string path;
  for (const auto& e : fs::directory_iterator(dir())) path = e.path().string();
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 10);  // torn write: tail lost

  ResultStore store(dir());
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_FALSE(store.lookup(9).has_value());
}

TEST_F(ResultStoreTest, MemoizedMapServesHitsAndPersistsMisses) {
  // A cold grid computes and persists every cell; a warm pass through a
  // reopened store computes none and serves identical results.
  for (const CellStrategy& st : kCellStrategies) {
    SCOPED_TRACE(st.name);
    const std::string sdir = dir() + "/" + st.name;
    int builds = 0;
    std::vector<DesignSpec> specs;
    for (SchemeKind k : {SchemeKind::BaselineSram, SchemeKind::ShrunkSram,
                         SchemeKind::StaticPartMrstt, SchemeKind::DynamicStt})
      specs.push_back(counted_design(k, builds));

    std::vector<SchemeSuiteResult> cold;
    {
      ResultStore store(sdir);
      cold = strategy_runner(st, &store).run_designs(specs);
      EXPECT_EQ(builds, 8);
      EXPECT_EQ(store.stats().stores, 8u);
    }

    builds = 0;
    ResultStore warm_store(sdir);
    const std::vector<SchemeSuiteResult> warm =
        strategy_runner(st, &warm_store).run_designs(specs);
    EXPECT_EQ(builds, 0);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      ASSERT_EQ(warm[i].per_workload.size(), 2u);
      for (std::size_t w = 0; w < 2; ++w)
        expect_equal(cold[i].per_workload[w], warm[i].per_workload[w]);
    }
    EXPECT_EQ(warm_store.stats().hits, 8u);
  }
}

TEST_F(ResultStoreTest, KilledSweepResumesByteIdentical) {
  // The kill-and-resume contract from docs/RESULT_STORE.md: a sweep that
  // dies mid-run (here: after persisting a prefix of its points, with one
  // record additionally corrupted on disk) must, when resumed, produce
  // records byte-identical to an uninterrupted cold run.
  ExperimentRunner runner({AppId::Launcher, AppId::Email}, 5000, 42);

  const fs::path cold_dir = fs::path(dir()) / "cold";
  const fs::path resumed_dir = fs::path(dir()) / "resumed";

  // Uninterrupted reference run.
  {
    ResultStore store(cold_dir.string());
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  }

  // "Killed" run: same sweep, but afterwards delete one record (a point the
  // process never got to) and corrupt another (a torn write at kill time).
  {
    ResultStore store(resumed_dir.string());
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  }
  std::vector<fs::path> records;
  for (const auto& e : fs::directory_iterator(resumed_dir))
    records.push_back(e.path());
  std::sort(records.begin(), records.end());
  ASSERT_GE(records.size(), 3u);
  fs::remove(records[0]);
  fs::resize_file(records[1], fs::file_size(records[1]) / 2);

  // Resume: only the missing + corrupt points recompute.
  {
    ResultStore store(resumed_dir.string());
    EXPECT_EQ(store.stats().corrupt_skipped, 1u);
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
    EXPECT_EQ(store.stats().hits, records.size() - 2);
    EXPECT_EQ(store.stats().stores, 2u);
  }
  runner.result_store = nullptr;

  // Every record file must now match the cold run byte for byte.
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  std::size_t compared = 0;
  for (const auto& e : fs::directory_iterator(cold_dir)) {
    const fs::path resumed = resumed_dir / e.path().filename();
    ASSERT_TRUE(fs::exists(resumed)) << resumed;
    EXPECT_EQ(slurp(e.path()), slurp(resumed)) << e.path().filename();
    ++compared;
  }
  EXPECT_EQ(compared, records.size());
}

TEST_F(ResultStoreTest, PoisonRecordRoundTripsAcrossReopen) {
  {
    ResultStore store(dir());
    store.store_failure(777, {"numeric", "lane cpi is not finite"});
    EXPECT_EQ(store.stats().poison_stores, 1u);
    // A poisoned key serves no value...
    EXPECT_FALSE(store.lookup(777).has_value());
    // ...but does serve its failure.
    const auto f = store.lookup_failure(777);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->error_type, "numeric");
    EXPECT_EQ(f->message, "lane cpi is not finite");
  }
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().poisoned_loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt_skipped, 0u);
  const auto f = reopened.lookup_failure(777);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->error_type, "numeric");
  EXPECT_EQ(reopened.stats().poison_hits, 1u);
}

TEST_F(ResultStoreTest, ValueStoreRehabilitatesAPoisonedKey) {
  ResultStore store(dir());
  store.store_failure(5, {"deadline", "too slow"});
  store.store(5, sample_result());
  EXPECT_FALSE(store.lookup_failure(5).has_value());
  EXPECT_TRUE(store.lookup(5).has_value());
  // And the rehabilitation survives reopen: the value record atomically
  // replaced the poison record on disk.
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().poisoned_loaded, 0u);
  EXPECT_TRUE(reopened.lookup(5).has_value());
}

TEST_F(ResultStoreTest, MemoizedMapOutcomesQuarantinesKnownBadPoints) {
  // A keep-going store-backed grid poisons each failing cell as it fails;
  // a resume serves the good cells as hits and the bad spec from its poison
  // records without running anything.
  const bool always = true;
  for (const CellStrategy& st : kCellStrategies) {
    SCOPED_TRACE(st.name);
    const std::string sdir = dir() + "/" + st.name;
    int builds = 0;
    const std::vector<DesignSpec> specs = {
        counted_design(SchemeKind::BaselineSram, builds),
        counted_design(SchemeKind::ShrunkSram, builds, &always),
        counted_design(SchemeKind::DynamicStt, builds)};

    PointFailure fresh;
    {
      ResultStore store(sdir);
      const auto cold = strategy_runner(st, &store).run_designs_outcomes(
          specs, /*keep_going=*/true);
      ASSERT_EQ(cold.size(), 3u);
      EXPECT_EQ(builds, 6);
      EXPECT_TRUE(cold[0].ok());
      ASSERT_FALSE(cold[1].ok());
      EXPECT_EQ(cold[1].failure->error_type, "numeric");
      EXPECT_NE(cold[1].failure->message.find("injected"), std::string::npos);
      EXPECT_FALSE(cold[1].failure->quarantined);  // fresh, not cached
      EXPECT_TRUE(cold[2].ok());
      EXPECT_EQ(store.stats().poison_stores, 2u);  // one per workload
      fresh = *cold[1].failure;
    }

    // Resume against the same directory: nothing is built at all.
    builds = 0;
    ResultStore warm(sdir);
    const auto resumed = strategy_runner(st, &warm).run_designs_outcomes(
        specs, /*keep_going=*/true);
    EXPECT_EQ(builds, 0);
    EXPECT_TRUE(resumed[0].ok());
    ASSERT_FALSE(resumed[1].ok());
    EXPECT_TRUE(resumed[1].failure->quarantined);
    EXPECT_EQ(resumed[1].failure->index, 1u);
    EXPECT_EQ(resumed[1].failure->error_type, "numeric");
    EXPECT_EQ(resumed[1].failure->message, fresh.message);
    EXPECT_TRUE(resumed[2].ok());
    EXPECT_EQ(warm.stats().hits, 4u);
    EXPECT_EQ(warm.stats().poison_hits, 2u);
  }
}

TEST_F(ResultStoreTest, RetryFailedReRunsQuarantinedPoints) {
  for (const CellStrategy& st : kCellStrategies) {
    SCOPED_TRACE(st.name);
    const std::string sdir = dir() + "/" + st.name;
    bool fail = true;
    int builds = 0;
    const std::vector<DesignSpec> specs = {
        counted_design(SchemeKind::StaticPartMrstt, builds, &fail)};
    {
      ResultStore store(sdir);
      (void)strategy_runner(st, &store).run_designs_outcomes(
          specs, /*keep_going=*/true);
      EXPECT_EQ(store.stats().poison_stores, 2u);
    }

    // The flaky cause is fixed; --retry-failed bypasses the quarantine and
    // a successful re-run replaces the poison records with values for good.
    fail = false;
    builds = 0;
    {
      ResultStore store(sdir);
      store.set_retry_failed(true);
      const auto out = strategy_runner(st, &store).run_designs_outcomes(
          specs, /*keep_going=*/true);
      EXPECT_EQ(builds, 2);
      EXPECT_TRUE(out[0].ok());
    }
    builds = 0;
    ResultStore healed(sdir);
    const auto warm = strategy_runner(st, &healed).run_designs_outcomes(
        specs, /*keep_going=*/true);
    EXPECT_EQ(builds, 0);
    EXPECT_TRUE(warm[0].ok());
    EXPECT_FALSE(warm[0].failure.has_value());
    EXPECT_EQ(healed.stats().hits, 2u);
    EXPECT_EQ(healed.stats().poisoned_loaded, 0u);
  }
}

TEST_F(ResultStoreTest, CancelledSweepNeverPoisonsAndResumesByteIdentical) {
  // The SIGTERM-drain contract: cancellation mid-sweep persists the
  // completed prefix, poisons nothing, and a resumed run fills in the rest
  // so the store ends byte-identical to an uninterrupted one.
  for (const CellStrategy& st : kCellStrategies) {
    SCOPED_TRACE(st.name);
    const std::vector<SchemeKind> kinds = {
        SchemeKind::BaselineSram, SchemeKind::ShrunkSram,
        SchemeKind::DrowsySram, SchemeKind::StaticPartMrstt,
        SchemeKind::DynamicStt};
    std::vector<DesignSpec> specs;
    for (SchemeKind k : kinds) specs.push_back(scheme_design(k));
    std::vector<DesignSpec> cancel_after_two = specs;
    // Requested *while building* cell 1: the cell still completes and
    // persists; the serial executor's pre-cell check then stops 2..4.
    cancel_after_two[1].build = [] {
      global_cancel_token().request_cancel();
      return build_scheme(SchemeKind::ShrunkSram);
    };

    const fs::path cold_dir = fs::path(dir()) / st.name / "cold";
    const fs::path resumed_dir = fs::path(dir()) / st.name / "resumed";
    const std::vector<AppId> one = {AppId::Launcher};
    {
      ResultStore store(cold_dir.string());
      (void)strategy_runner(st, &store, one)
          .run_designs_outcomes(specs, /*keep_going=*/true);
    }
    {
      ResultStore store(resumed_dir.string());
      EXPECT_THROW(strategy_runner(st, &store, one)
                       .run_designs_outcomes(cancel_after_two,
                                             /*keep_going=*/true),
                   CancelledError);
      global_cancel_token().reset();
      // Cells 0 and 1 completed and were persisted, 2..4 never ran and
      // were not poisoned.
      EXPECT_EQ(store.stats().stores, 2u);
      EXPECT_EQ(store.stats().poison_stores, 0u);
    }
    {
      ResultStore store(resumed_dir.string());
      EXPECT_EQ(store.stats().poisoned_loaded, 0u);
      const auto out = strategy_runner(st, &store, one)
                           .run_designs_outcomes(specs, /*keep_going=*/true);
      EXPECT_EQ(store.stats().hits, 2u);
      for (const auto& o : out) EXPECT_TRUE(o.ok());
    }
    auto slurp = [](const fs::path& p) {
      std::ifstream in(p, std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      return ss.str();
    };
    std::size_t compared = 0;
    for (const auto& e : fs::directory_iterator(cold_dir)) {
      const fs::path resumed = resumed_dir / e.path().filename();
      ASSERT_TRUE(fs::exists(resumed)) << resumed;
      EXPECT_EQ(slurp(e.path()), slurp(resumed)) << e.path().filename();
      ++compared;
    }
    EXPECT_EQ(compared, specs.size());
  }
}

TEST_F(ResultStoreTest, RunnerMemoizationMatchesDirectRun) {
  // Served-from-store results must be indistinguishable from computed ones
  // at the SimResult level, not just on headline numbers.
  ExperimentRunner runner({AppId::Launcher}, 4000, 7);
  const SchemeSuiteResult direct = runner.run_scheme(SchemeKind::DynamicStt);

  ResultStore store(dir());
  runner.result_store = &store;
  const SchemeSuiteResult cold = runner.run_scheme(SchemeKind::DynamicStt);
  const SchemeSuiteResult warm = runner.run_scheme(SchemeKind::DynamicStt);
  runner.result_store = nullptr;

  ASSERT_EQ(direct.per_workload.size(), warm.per_workload.size());
  for (std::size_t i = 0; i < direct.per_workload.size(); ++i) {
    expect_equal(direct.per_workload[i], cold.per_workload[i]);
    expect_equal(direct.per_workload[i], warm.per_workload[i]);
  }
  EXPECT_GT(store.stats().hits, 0u);
}

TEST_F(ResultStoreTest, CallerSessionSeesOnlySimulatedCells) {
  // A caller-supplied session does not opt out of memoization: a missing
  // cell is simulated into the session (and stored), a stored cell is
  // served and never reaches the session.
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  ResultStore store(dir());
  runner.result_store = &store;

  Telemetry cold;
  cold.set_sample_interval(500);
  runner.sim_options.telemetry = &cold;
  const SchemeSuiteResult a = runner.run_scheme(SchemeKind::DynamicStt);
  EXPECT_EQ(cold.workload(), "launcher");
  EXPECT_GT(cold.epochs().size(), 0u);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().stores, 1u);

  Telemetry warm;
  warm.set_sample_interval(500);
  runner.sim_options.telemetry = &warm;
  const SchemeSuiteResult b = runner.run_scheme(SchemeKind::DynamicStt);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_TRUE(warm.workload().empty());
  EXPECT_EQ(warm.epochs().size(), 0u);
  EXPECT_TRUE(warm.metrics().empty());
  expect_equal(a.per_workload[0], b.per_workload[0]);
}

}  // namespace
}  // namespace mobcache
