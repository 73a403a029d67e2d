/// \file mobcache_appcheck.cpp
/// CLI: workload calibration report. For every app (or one named app)
/// prints the properties the reproduction depends on — kernel L2 share,
/// L1/L2 miss rates, footprints, phase list — and flags values outside the
/// calibrated bands. Run this after touching the workload models.
///
/// Usage: mobcache_appcheck [app] [records] [seed]

#include <cstdio>
#include <cstring>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/runner.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

bool check_app(AppId id, std::uint64_t records, std::uint64_t seed,
               TablePrinter& t) {
  const AppSpec spec = make_app(id);
  const ExperimentRunner runner({id}, records, seed);
  const Trace& trace = runner.trace(0);
  const TraceSummary ts = trace.summarize();
  const SimResult r =
      runner.run_scheme(SchemeKind::BaselineSram).per_workload.front();

  const bool share_ok = spec.interactive
                            ? r.l2_kernel_fraction() > 0.35 &&
                                  r.l2_kernel_fraction() < 0.75
                            : r.l2_kernel_fraction() < 0.15;
  const bool miss_ok = r.l2_miss_rate() < 0.75;
  const bool consistent = trace.modes_consistent_with_addresses();
  const bool ok = share_ok && miss_ok && consistent;

  std::string phases;
  for (const PhaseSpec& p : spec.phases) {
    if (!phases.empty()) phases += ", ";
    phases += p.name;
  }

  t.add_row({app_name(id), spec.interactive ? "interactive" : "compute",
             phases, format_percent(ts.kernel_fraction()),
             format_percent(r.l2_kernel_fraction()),
             format_percent(r.l1d.miss_rate()),
             format_percent(r.l2_miss_rate()),
             format_bytes((ts.distinct_lines_user + ts.distinct_lines_kernel) *
                          kLineSize),
             ok ? "ok" : "OUT OF BAND"});
  return ok;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  const std::uint64_t records =
      argc > 2 ? parse_uint(argv[2], "records", 1) : 400'000;
  const std::uint64_t seed = argc > 3 ? parse_uint(argv[3], "seed") : 42;

  std::vector<AppId> apps;
  if (argc > 1) {
    bool found = false;
    for (AppId id : all_apps()) {
      if (std::strcmp(argv[1], app_name(id)) == 0) {
        apps.push_back(id);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown app '%s'\n", argv[1]);
      return 2;
    }
  } else {
    apps = all_apps();
  }

  std::printf("workload calibration check (%s records/app, seed %llu)\n\n",
              format_count(records).c_str(),
              static_cast<unsigned long long>(seed));
  TablePrinter t({"app", "class", "phases", "trace kern", "L2 kern share",
                  "L1D miss", "L2 miss", "footprint", "band"});
  bool all_ok = true;
  for (AppId id : apps) all_ok &= check_app(id, records, seed, t);
  t.print();

  std::printf("\nbands: interactive apps 35%%-75%% kernel share of L2 "
              "accesses, compute <15%%; L2 miss <75%%.\n%s\n",
              all_ok ? "ALL IN BAND" : "CALIBRATION DRIFT DETECTED");
  return all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return guarded_main("mobcache_appcheck", /*install_signals=*/false, argc,
                      argv, tool_main);
}
