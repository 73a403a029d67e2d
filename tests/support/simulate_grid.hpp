#pragma once
/// \file simulate_grid.hpp
/// The tests' per-point reference for a design grid: one direct simulate()
/// call per (spec × workload) cell, assembled the way
/// ExperimentRunner::run_designs() assembles its SchemeSuiteResults. Every
/// runner path shares the L1 front end when it can, so a runner is no
/// longer an independent reference for another runner; simulate() is.

#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

namespace mobcache {

/// Runs every spec of `specs` over `runner`'s traces and sim_options with
/// simulate(), in spec order (no normalization, no result store).
inline std::vector<SchemeSuiteResult> simulate_grid(
    const ExperimentRunner& runner, const std::vector<DesignSpec>& specs) {
  std::vector<SchemeSuiteResult> out;
  out.reserve(specs.size());
  for (const DesignSpec& spec : specs) {
    SchemeSuiteResult r;
    r.name = spec.name;
    if (spec.kind) r.kind = *spec.kind;
    double miss_sum = 0.0;
    for (const auto& trace : runner.traces()) {
      r.per_workload.push_back(
          simulate(*trace, spec.build(), runner.sim_options));
      miss_sum += r.per_workload.back().l2_miss_rate();
    }
    if (!r.per_workload.empty())
      r.avg_miss_rate = miss_sum / static_cast<double>(r.per_workload.size());
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mobcache
