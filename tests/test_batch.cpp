/// \file test_batch.cpp
/// Single-pass batch sweep engine (sim/batch.hpp, cache/config_batch.hpp,
/// ExperimentRunner::run_designs): the batched path's whole contract is
/// byte-identity with the per-point path, so nearly every test here pins
/// the two against each other — SimResults via the exact result-store
/// record serialization, result-store keys across paths, and the keep-going
/// failure manifests. The ShadowConfigBatch estimator is checked against a
/// brute-force LRU-stack reference.

#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/config_batch.hpp"
#include "common/cancel.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exp/bench_harness.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "support/scoped_dir.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

/// Forwarding L2 wrapper with a per-access hook — the seam for injecting
/// lane-local faults and mid-replay cancellation into batch tests.
class HookedL2 final : public L2Interface {
 public:
  HookedL2(std::unique_ptr<L2Interface> inner,
           std::function<void(std::uint64_t)> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override {
    hook_(++accesses_);
    return inner_->access(line, type, mode, now);
  }
  void writeback(Addr line, Mode owner, Cycle now) override {
    inner_->writeback(line, owner, now);
  }
  void prefetch(Addr line, Mode mode, Cycle now) override {
    inner_->prefetch(line, mode, now);
  }
  void finalize(Cycle end) override { inner_->finalize(end); }
  const EnergyBreakdown& energy() const override { return inner_->energy(); }
  CacheStats aggregate_stats() const override {
    return inner_->aggregate_stats();
  }
  std::uint64_t capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  double avg_enabled_bytes() const override {
    return inner_->avg_enabled_bytes();
  }
  std::uint32_t quarantined_ways() const override {
    return inner_->quarantined_ways();
  }
  std::string describe() const override { return inner_->describe(); }
  void set_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    inner_->set_eviction_observer(std::move(obs));
  }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    inner_->add_eviction_observer(std::move(obs));
  }

 private:
  std::unique_ptr<L2Interface> inner_;
  std::function<void(std::uint64_t)> hook_;
  std::uint64_t accesses_ = 0;
};

// ---- eligibility ---------------------------------------------------------

TEST(BatchEligible, DefaultOptionsAreEligible) {
  EXPECT_TRUE(batch_eligible(SimOptions{}));
}

TEST(BatchEligible, AnyL2ToL1ChannelDisqualifies) {
  SimOptions inclusive;
  inclusive.hierarchy.inclusive_l2 = true;
  EXPECT_FALSE(batch_eligible(inclusive));

  SimOptions prefetch;
  prefetch.hierarchy.prefetch.enabled = true;
  EXPECT_FALSE(batch_eligible(prefetch));

  SimOptions telemetry;
  Telemetry session;
  telemetry.telemetry = &session;
  EXPECT_FALSE(batch_eligible(telemetry));

  SimOptions observer;
  observer.l2_eviction_observer = [](const EvictionEvent&) {};
  EXPECT_FALSE(batch_eligible(observer));
}

// ---- demand stream -------------------------------------------------------

TEST(BatchStream, CountsMatchTheSharedL1Pass) {
  const Trace trace = generate_app_trace(AppId::Launcher, 40'000, 7);
  const SimOptions opts;
  const DemandStream s = build_demand_stream(trace, opts);

  EXPECT_EQ(s.total_records, trace.size());
  EXPECT_EQ(s.workload, trace.name());
  // One demand record per L1 miss, nothing more.
  EXPECT_EQ(s.size(), s.l1i.total_misses() + s.l1d.total_misses());
  EXPECT_GT(s.size(), 0u);
  EXPECT_GT(s.l1_dynamic_nj, 0.0);

  // SoA lanes stay aligned; record indices are the retire-order clock base.
  ASSERT_EQ(s.record.size(), s.size());
  ASSERT_EQ(s.flags.size(), s.size());
  ASSERT_EQ(s.wb_line.size(), s.size());
  std::uint64_t prev = 0;
  for (std::size_t e = 0; e < s.size(); ++e) {
    EXPECT_GE(s.record[e], prev);
    EXPECT_LT(s.record[e], s.total_records);
    prev = s.record[e];
    if ((s.flags[e] & DemandStream::kWriteback) == 0) {
      EXPECT_EQ(s.wb_line[e], 0u);
    }
  }
}

// ---- batch replay vs simulate() ------------------------------------------

TEST(BatchSim, MixedSchemeBatchMatchesSimulateForEveryScheme) {
  const Trace trace = generate_app_trace(AppId::Browser, 40'000, 11);
  const SimOptions opts;

  // All nine schemes as lanes of ONE batch — the mixed-kind stress case.
  std::vector<std::unique_ptr<L2Interface>> designs;
  std::vector<L2Interface*> lanes;
  for (int k = 0; k < kSchemeCount; ++k) {
    designs.push_back(build_scheme(static_cast<SchemeKind>(k)));
    lanes.push_back(designs.back().get());
  }
  const std::vector<SimResult> batched = simulate_batch(trace, lanes, opts);
  ASSERT_EQ(batched.size(), static_cast<std::size_t>(kSchemeCount));

  for (int k = 0; k < kSchemeCount; ++k) {
    const std::unique_ptr<L2Interface> ref =
        build_scheme(static_cast<SchemeKind>(k));
    const SimResult expect = simulate(trace, *ref, opts);
    EXPECT_EQ(result_to_record_json(batched[static_cast<std::size_t>(k)]),
              result_to_record_json(expect))
        << "scheme " << scheme_name(static_cast<SchemeKind>(k));
  }
}

TEST(BatchSim, LaneErrorIsConfinedToItsLane) {
  const Trace trace = generate_app_trace(AppId::Email, 30'000, 3);
  const SimOptions opts;
  const DemandStream stream = build_demand_stream(trace, opts);

  auto good = build_scheme(SchemeKind::BaselineSram);
  HookedL2 bad(build_scheme(SchemeKind::BaselineSram),
               [](std::uint64_t n) {
                 if (n == 100) throw NumericError("injected lane fault");
               });
  std::vector<L2Interface*> lanes{good.get(), &bad};
  const std::vector<BatchLaneOutcome> out =
      simulate_batch_lanes(stream, lanes, opts);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok());
  ASSERT_FALSE(out[1].ok());
  EXPECT_THROW(std::rethrow_exception(out[1].error), NumericError);

  // The healthy lane is untouched by its neighbour's death.
  const std::unique_ptr<L2Interface> ref =
      build_scheme(SchemeKind::BaselineSram);
  EXPECT_EQ(result_to_record_json(*out[0].result),
            result_to_record_json(simulate(trace, *ref, opts)));
}

TEST(BatchSim, PreCancelledTokenAbortsTheSharedPass) {
  // The poll cadence is kCancelPollStride records, so the trace must span
  // at least one chunk boundary for the token to be observed.
  const Trace trace =
      generate_app_trace(AppId::Launcher, kCancelPollStride + 5'000, 7);
  CancelToken token;
  token.request_cancel();
  SimOptions opts;
  opts.cancel = &token;
  std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::BaselineSram);
  std::vector<L2Interface*> lanes{l2.get()};
  EXPECT_THROW(simulate_batch(trace, lanes, opts), CancelledError);
}

// ---- ExperimentRunner batched path ---------------------------------------

std::vector<DesignSpec> mixed_grid() {
  std::vector<DesignSpec> specs;
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  SchemeParams lo_hi;
  lo_hi.mrstt_user = RetentionClass::Lo;
  lo_hi.mrstt_kernel = RetentionClass::Hi;
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt, lo_hi));
  SchemeParams small;
  small.baseline_bytes = 512ull << 10;
  small.baseline_assoc = 8;
  specs.push_back(scheme_design(SchemeKind::BaselineSram, small));
  specs.push_back(scheme_design(SchemeKind::DynamicStt));
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt));
  return specs;
}

void expect_suite_equal(const SchemeSuiteResult& a,
                        const SchemeSuiteResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_DOUBLE_EQ(a.avg_miss_rate, b.avg_miss_rate);
  ASSERT_EQ(a.per_workload.size(), b.per_workload.size());
  for (std::size_t w = 0; w < a.per_workload.size(); ++w) {
    EXPECT_EQ(result_to_record_json(a.per_workload[w]),
              result_to_record_json(b.per_workload[w]));
  }
}

TEST(RunnerBatch, RunDesignsByteIdenticalAcrossBatchAndJobs) {
  const std::vector<DesignSpec> specs = mixed_grid();

  ExperimentRunner per_point({AppId::Launcher, AppId::Email}, 30'000, 42);
  const std::vector<SchemeSuiteResult> expect = per_point.run_designs(specs);

  // Full-grid batch, chunked batch (lane cap smaller than the grid), and a
  // parallel batched run must all reproduce the per-point bytes.
  for (const auto& [batch, jobs] :
       std::vector<std::pair<unsigned, unsigned>>{{8, 1}, {2, 1}, {8, 2}}) {
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.sweep_batch = batch;
    r.jobs = jobs;
    ASSERT_TRUE(r.batchable());
    const std::vector<SchemeSuiteResult> got = r.run_designs(specs);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_suite_equal(got[i], expect[i]);
  }
}

TEST(RunnerBatch, RunSchemesDelegatesToTheBatchedPath) {
  const std::vector<SchemeKind> kinds{SchemeKind::BaselineSram,
                                      SchemeKind::StaticPartMrstt,
                                      SchemeKind::DynamicStt};
  ExperimentRunner per_point({AppId::Maps}, 30'000, 9);
  ExperimentRunner batched({AppId::Maps}, 30'000, 9);
  batched.sweep_batch = 8;
  ASSERT_TRUE(batched.batchable());
  const auto expect = per_point.run_schemes(kinds);
  const auto got = batched.run_schemes(kinds);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
}

TEST(RunnerBatch, IneligibleConfigurationFallsBackPerPoint) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  r.sweep_batch = 8;
  ASSERT_TRUE(r.batchable());
  r.sim_options.hierarchy.inclusive_l2 = true;
  EXPECT_FALSE(r.batchable());
  // The fallback still runs the grid correctly under the ineligible config.
  const auto got = r.run_designs({scheme_design(SchemeKind::BaselineSram)});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].per_workload[0].records, 0u);

  ExperimentRunner t({AppId::Launcher}, 20'000, 1);
  t.sweep_batch = 8;
  t.collect_telemetry = true;
  EXPECT_FALSE(t.batchable());
}

TEST(RunnerBatch, KeepGoingManifestMatchesPerPoint) {
  const std::vector<DesignSpec> specs = mixed_grid();
  const auto hook = [](std::size_t i) {
    if (i == 2) {
      NumericError err("injected chaos fault");
      err.with_point(i);
      throw err;
    }
  };

  ExperimentRunner per_point({AppId::Launcher, AppId::Email}, 30'000, 42);
  const auto expect =
      per_point.run_designs_outcomes(specs, /*keep_going=*/true, hook);

  ExperimentRunner batched({AppId::Launcher, AppId::Email}, 30'000, 42);
  batched.sweep_batch = 8;
  const auto got =
      batched.run_designs_outcomes(specs, /*keep_going=*/true, hook);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), expect[i].ok()) << "point " << i;
    if (got[i].ok()) {
      expect_suite_equal(*got[i].value, *expect[i].value);
    } else {
      EXPECT_EQ(got[i].failure->index, expect[i].failure->index);
      EXPECT_EQ(got[i].failure->error_type, expect[i].failure->error_type);
      EXPECT_EQ(got[i].failure->message, expect[i].failure->message);
      EXPECT_FALSE(got[i].failure->quarantined);
    }
  }
  EXPECT_FALSE(got[2].ok());
  EXPECT_EQ(got[2].failure->error_type, "numeric");
}

TEST(RunnerBatch, FailFastPropagatesTheInjectedFault) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  r.sweep_batch = 8;
  const auto hook = [](std::size_t i) {
    if (i == 1) throw NumericError("injected chaos fault");
  };
  EXPECT_THROW(r.run_designs_outcomes(mixed_grid(), /*keep_going=*/false,
                                      hook),
               NumericError);
}

// ---- result-store interchange --------------------------------------------

class BatchStoreTest : public ::testing::Test {
 protected:
  std::string dir() const { return tmp_.path().string(); }

  ScopedDir tmp_{"batch"};
};

TEST_F(BatchStoreTest, BatchedWarmRunServesPerPointColdRecords) {
  const std::vector<DesignSpec> specs = mixed_grid();
  {
    ResultStore cold(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.result_store = &cold;
    (void)r.run_designs(specs);  // per-point cold run populates the store
    EXPECT_EQ(cold.stats().stores, specs.size() * 2);
  }
  ResultStore warm(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
  r.result_store = &warm;
  r.sweep_batch = 8;
  ASSERT_TRUE(r.batchable());
  const auto got = r.run_designs(specs);

  ExperimentRunner ref({AppId::Launcher, AppId::Email}, 30'000, 42);
  const auto expect = ref.run_designs(specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
  // Every (design × workload) cell was served from the per-point records —
  // the two paths key identically.
  EXPECT_EQ(warm.stats().hits, specs.size() * 2);
  EXPECT_EQ(warm.stats().misses, 0u);
}

TEST_F(BatchStoreTest, PerPointWarmRunServesBatchedColdRecords) {
  const std::vector<DesignSpec> specs = mixed_grid();
  {
    ResultStore cold(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.result_store = &cold;
    r.sweep_batch = 8;
    (void)r.run_designs(specs);  // batched cold run populates the store
    EXPECT_EQ(cold.stats().stores, specs.size() * 2);
  }
  ResultStore warm(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
  r.result_store = &warm;
  (void)r.run_designs(specs);
  EXPECT_EQ(warm.stats().hits, specs.size() * 2);
  EXPECT_EQ(warm.stats().misses, 0u);
}

TEST_F(BatchStoreTest, CancellationMidSweepResumesFromTheStore) {
  // A lane flips the token during workload 0's replay; the cancellation is
  // observed at workload 1's first poll stride, after workload 0's completed
  // cells reached the store. The rerun then resumes from those records.
  const std::uint64_t len = kCancelPollStride + 10'000;
  CancelToken token;
  std::vector<DesignSpec> specs;
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt));
  DesignSpec saboteur;
  saboteur.name = "saboteur";
  saboteur.build = [&token] {
    return std::make_unique<HookedL2>(
        build_scheme(SchemeKind::BaselineSram),
        [&token](std::uint64_t n) {
          if (n == 1) token.request_cancel();
        });
  };  // no design_hash: the saboteur itself is never memoized
  specs.push_back(std::move(saboteur));

  {
    ResultStore store(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
    r.result_store = &store;
    r.sweep_batch = 8;
    r.sim_options.cancel = &token;
    EXPECT_THROW(r.run_designs_outcomes(specs, /*keep_going=*/true),
                 CancelledError);
    EXPECT_GE(store.stats().stores, 2u);  // workload 0's hashed cells landed
  }

  token.reset();
  specs.pop_back();  // resume the real grid without the saboteur
  ResultStore store(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
  r.result_store = &store;
  r.sweep_batch = 8;
  const auto got = r.run_designs(specs);
  EXPECT_GE(store.stats().hits, 2u);

  ExperimentRunner ref({AppId::Launcher, AppId::Email}, len, 42);
  const auto expect = ref.run_designs(specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
}

// ---- ShadowConfigBatch ---------------------------------------------------

/// Brute-force per-set LRU stacks — the reference the SoA implementation
/// must agree with exactly when every set is monitored (sample_shift 0).
struct ReferenceStacks {
  explicit ReferenceStacks(const ShadowGeometry& g)
      : geom(g), sets(g.num_sets), hits_at_depth(g.assoc, 0) {}

  void observe(Addr line) {
    const Addr block = line / kLineSize;
    auto& stack = sets[static_cast<std::size_t>(block % geom.num_sets)];
    ++accesses;
    for (std::size_t d = 0; d < stack.size(); ++d) {
      if (stack[d] == block) {
        ++hits_at_depth[d];
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(d));
        stack.insert(stack.begin(), block);
        return;
      }
    }
    stack.insert(stack.begin(), block);
    if (stack.size() > geom.assoc) stack.pop_back();
  }

  std::uint64_t hits_with_ways(std::uint32_t ways) const {
    std::uint64_t h = 0;
    for (std::uint32_t d = 0; d < std::min(ways, geom.assoc); ++d)
      h += hits_at_depth[d];
    return h;
  }

  ShadowGeometry geom;
  std::vector<std::vector<Addr>> sets;
  std::vector<std::uint64_t> hits_at_depth;
  std::uint64_t accesses = 0;
};

TEST(ShadowBatch, UnsampledLanesMatchReferenceLruStacks) {
  const std::vector<ShadowGeometry> geoms{{16, 4}, {64, 8}, {32, 2}};
  ShadowConfigBatch batch(geoms, /*sample_shift=*/0);
  std::vector<ReferenceStacks> refs(geoms.begin(), geoms.end());

  Rng rng(99);
  for (int i = 0; i < 5'000; ++i) {
    const Addr line = rng.below(2'048) * kLineSize;
    batch.observe(line);
    for (ReferenceStacks& r : refs) r.observe(line);
  }
  for (std::size_t g = 0; g < geoms.size(); ++g) {
    EXPECT_EQ(batch.observed_accesses(g), refs[g].accesses);
    for (std::uint32_t w = 1; w <= geoms[g].assoc; ++w) {
      EXPECT_EQ(batch.hits_with_ways(g, w), refs[g].hits_with_ways(w))
          << "lane " << g << " ways " << w;
    }
  }
}

TEST(ShadowBatch, HitsAreMonotonicInWaysAndRatesBounded) {
  ShadowConfigBatch batch({{128, 8}}, /*sample_shift=*/2);
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i)
    batch.observe(rng.below(8'192) * kLineSize);

  std::uint64_t prev = 0;
  for (std::uint32_t w = 1; w <= 8; ++w) {
    const std::uint64_t h = batch.hits_with_ways(0, w);
    EXPECT_GE(h, prev);
    prev = h;
    const double rate = batch.estimated_miss_rate(0, w);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  // Sampled counters are scaled back up by the 1 << shift factor.
  EXPECT_EQ(batch.observed_accesses(0) % 4, 0u);
}

TEST(ShadowBatch, EstimationSeamCoversEveryLane) {
  const Trace trace = generate_app_trace(AppId::Browser, 30'000, 5);
  const DemandStream stream = build_demand_stream(trace, SimOptions{});
  ShadowConfigBatch shadow({{2048, 16}, {2048, 8}, {1024, 16}},
                           /*sample_shift=*/0);
  const std::vector<double> rates = estimate_demand_miss_rates(stream, shadow);
  ASSERT_EQ(rates.size(), 3u);
  for (const double r : rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  // Same sets, fewer ways: the 8-way estimate cannot out-hit the 16-way.
  EXPECT_GE(rates[1], rates[0]);
}

TEST(ShadowBatch, EstimationSeamCountsWritebacks) {
  // The simulated L2 sees every demand and then its L1 castout; the
  // estimator must observe that same access stream, not the demands alone.
  const Trace trace = generate_app_trace(AppId::Browser, 30'000, 5);
  const DemandStream stream = build_demand_stream(trace, SimOptions{});
  std::uint64_t writebacks = 0;
  for (const std::uint8_t f : stream.flags) {
    if ((f & DemandStream::kWriteback) != 0) ++writebacks;
  }
  ASSERT_GT(writebacks, 0u);
  ShadowConfigBatch shadow({{2048, 16}}, /*sample_shift=*/0);
  estimate_demand_miss_rates(stream, shadow);
  EXPECT_EQ(shadow.observed_accesses(0), stream.size() + writebacks);
}

TEST(ShadowBatch, RejectsDegenerateGeometry) {
  const std::vector<ShadowGeometry> zero_sets{{0, 4}};
  const std::vector<ShadowGeometry> zero_ways{{16, 0}};
  const std::vector<ShadowGeometry> odd_sets{{16, 4}, {12, 4}};
  EXPECT_THROW(ShadowConfigBatch batch(zero_sets), std::invalid_argument);
  EXPECT_THROW(ShadowConfigBatch batch(zero_ways), std::invalid_argument);
  EXPECT_THROW(ShadowConfigBatch batch({{16, 4}}, /*sample_shift=*/32),
               std::invalid_argument);
  try {
    ShadowConfigBatch batch(odd_sets);
    ADD_FAILURE() << "a 12-set geometry must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("12 sets"), std::string::npos)
        << e.what();
  }
}

// ---- bench_sweep_batch CLI/env parsing -----------------------------------

unsigned parse_batch(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (std::string& a : args) argv.push_back(a.data());
  return bench_sweep_batch(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchSweepBatch, FlagAndEnvParsing) {
  unsetenv("MOBCACHE_SWEEP_BATCH");
  EXPECT_EQ(parse_batch({}), 1u);
  EXPECT_EQ(parse_batch({"--batch=4"}), 4u);
  EXPECT_EQ(parse_batch({"--batch"}), 16u);       // bare flag = default cap
  EXPECT_EQ(parse_batch({"--batch=0"}), 1u);      // 0/1 mean per-point
  EXPECT_EQ(parse_batch({"--batch=1"}), 1u);
  EXPECT_THROW(parse_batch({"--batch=abc"}), ConfigError);
  EXPECT_THROW(parse_batch({"--batch=9999"}), ConfigError);

  setenv("MOBCACHE_SWEEP_BATCH", "8", 1);
  EXPECT_EQ(parse_batch({}), 8u);
  EXPECT_EQ(parse_batch({"--batch=4"}), 4u);      // the flag wins
  setenv("MOBCACHE_SWEEP_BATCH", "garbage", 1);
  EXPECT_THROW(parse_batch({}), EnvError);
  unsetenv("MOBCACHE_SWEEP_BATCH");
}

}  // namespace
}  // namespace mobcache
