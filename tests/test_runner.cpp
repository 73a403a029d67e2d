#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include "exp/report.hpp"

namespace mobcache {
namespace {

TEST(Runner, GeneratesOneTracePerApp) {
  ExperimentRunner r({AppId::Launcher, AppId::AudioPlayer}, 20'000, 1);
  ASSERT_EQ(r.traces().size(), 2u);
  EXPECT_EQ(r.trace(0).name(), "launcher");
  EXPECT_GE(r.trace(0).size(), 20'000u);
}

TEST(Runner, RunSchemeProducesAlignedResults) {
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 20'000, 1);
  const SchemeSuiteResult s = r.run_scheme(SchemeKind::BaselineSram);
  ASSERT_EQ(s.per_workload.size(), 2u);
  EXPECT_EQ(s.per_workload[0].workload, "launcher");
  EXPECT_EQ(s.per_workload[1].workload, "email");
  EXPECT_EQ(s.name, "Base-SRAM-2MB");
  EXPECT_GT(s.avg_miss_rate, 0.0);
}

TEST(Runner, RunCustomUsesBuilderPerWorkload) {
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 20'000, 1);
  int builds = 0;
  DesignSpec probe;
  probe.name = "probe";
  probe.build = [&] {
    ++builds;
    return build_scheme(SchemeKind::BaselineSram);
  };
  const SchemeSuiteResult s = r.run_designs({probe}).front();
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(s.name, "probe");
}

TEST(Runner, NormalizeBaselineIsUnity) {
  ExperimentRunner r({AppId::Launcher}, 30'000, 1);
  std::vector<SchemeSuiteResult> v;
  v.push_back(r.run_scheme(SchemeKind::BaselineSram));
  v.push_back(r.run_scheme(SchemeKind::ShrunkSram));
  ExperimentRunner::normalize(v);
  EXPECT_NEAR(v[0].norm_cache_energy, 1.0, 1e-12);
  EXPECT_NEAR(v[0].norm_exec_time, 1.0, 1e-12);
  // The shrunk shared cache must save energy and cost time.
  EXPECT_LT(v[1].norm_cache_energy, 1.0);
  EXPECT_GT(v[1].norm_exec_time, 1.0);
}

TEST(Runner, NormalizeCrossWorkloadGeomean) {
  // Hand-build results with known ratios: 0.5 and 2.0 → geomean 1.0.
  SchemeSuiteResult base;
  base.per_workload.resize(2);
  base.per_workload[0].l2_energy.leakage_nj = 100;
  base.per_workload[0].cycles = 1000;
  base.per_workload[1].l2_energy.leakage_nj = 100;
  base.per_workload[1].cycles = 1000;

  SchemeSuiteResult other = base;
  other.per_workload[0].l2_energy.leakage_nj = 50;
  other.per_workload[1].l2_energy.leakage_nj = 200;
  other.per_workload[0].cycles = 500;
  other.per_workload[1].cycles = 2000;

  std::vector<SchemeSuiteResult> v{base, other};
  ExperimentRunner::normalize(v);
  EXPECT_NEAR(v[1].norm_cache_energy, 1.0, 1e-9);
  EXPECT_NEAR(v[1].norm_exec_time, 1.0, 1e-9);
}

TEST(Runner, SameSeedSameResults) {
  ExperimentRunner a({AppId::Game}, 30'000, 5);
  ExperimentRunner b({AppId::Game}, 30'000, 5);
  const auto ra = a.run_scheme(SchemeKind::BaselineSram);
  const auto rb = b.run_scheme(SchemeKind::BaselineSram);
  EXPECT_EQ(ra.per_workload[0].cycles, rb.per_workload[0].cycles);
  EXPECT_DOUBLE_EQ(ra.per_workload[0].l2_energy.total_nj(),
                   rb.per_workload[0].l2_energy.total_nj());
}

TEST(Report, HeadlineTableShape) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  std::vector<SchemeSuiteResult> v;
  v.push_back(r.run_scheme(SchemeKind::BaselineSram));
  ExperimentRunner::normalize(v);
  const TablePrinter t = headline_table(v);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_count(), 8u);
  EXPECT_NE(t.render().find("Base-SRAM-2MB"), std::string::npos);
}

TEST(Report, ResultsPathUsesEnvOverride) {
  setenv("MOBCACHE_RESULTS_DIR", "/tmp/mobcache_results_test", 1);
  EXPECT_EQ(results_path("x.csv"), "/tmp/mobcache_results_test/x.csv");
  unsetenv("MOBCACHE_RESULTS_DIR");
  EXPECT_EQ(results_path("x.csv"), "results/x.csv");
}

}  // namespace
}  // namespace mobcache
