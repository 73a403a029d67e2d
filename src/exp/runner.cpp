#include "exp/runner.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "energy/technology.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "sim/batch.hpp"

namespace mobcache {

void validate_sim_result_finite(const SimResult& r) {
  const struct {
    const char* name;
    double v;
  } lanes[] = {
      {"cpi", r.cpi},
      {"e.leakage_nj", r.l2_energy.leakage_nj},
      {"e.read_nj", r.l2_energy.read_nj},
      {"e.write_nj", r.l2_energy.write_nj},
      {"e.refresh_nj", r.l2_energy.refresh_nj},
      {"e.dram_nj", r.l2_energy.dram_nj},
      {"e.ecc_nj", r.l2_energy.ecc_nj},
      {"l1_energy_nj", r.l1_energy_nj},
      {"l2_avg_enabled_bytes", r.l2_avg_enabled_bytes},
  };
  for (const auto& lane : lanes) {
    if (std::isfinite(lane.v)) continue;
    NumericError err(std::string("result lane ") + lane.name +
                     " is not finite (" + std::to_string(lane.v) + ")");
    err.with_scheme(r.scheme).with_workload(r.workload);
    throw err;
  }
}

ExperimentRunner::ExperimentRunner(std::vector<AppId> apps,
                                   std::uint64_t accesses, std::uint64_t seed)
    : apps_(std::move(apps)),
      traces_(cached_suite(apps_, accesses, seed)) {}

ExperimentRunner::ExperimentRunner(std::vector<Trace> traces) {
  traces_.reserve(traces.size());
  for (Trace& t : traces)
    traces_.push_back(std::make_shared<const Trace>(std::move(t)));
}

std::vector<std::uint64_t> ExperimentRunner::cell_keys(
    std::uint64_t design_hash) const {
  const std::uint64_t opts = hash_sim_options(sim_options);
  const std::uint64_t tech = hash_technology(technology());
  std::vector<std::uint64_t> keys;
  keys.reserve(traces_.size());
  for (const auto& t : traces_)
    keys.push_back(result_point_key(design_hash, t->fingerprint(), opts, tech));
  return keys;
}

DesignSpec scheme_design(SchemeKind kind, const SchemeParams& params) {
  DesignSpec d;
  d.name = scheme_name(kind);
  d.build = [kind, params] { return build_scheme(kind, params); };
  // Content identity of a built-in scheme: kind + every SchemeParams field.
  d.design_hash = ContentHasher()
                      .mix(std::string("scheme"))
                      .mix(static_cast<std::uint64_t>(kind))
                      .mix(hash_scheme_params(params))
                      .digest();
  d.kind = kind;
  return d;
}

SchemeSuiteResult ExperimentRunner::run_scheme(SchemeKind kind,
                                               const SchemeParams& params) const {
  return std::move(run_designs({scheme_design(kind, params)}).front());
}

bool ExperimentRunner::batchable() const {
  return sweep_batch >= 2 && batch_eligible(sim_options);
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_designs(
    const std::vector<DesignSpec>& specs) const {
  std::vector<PointOutcome<SchemeSuiteResult>> outcomes =
      run_designs_outcomes(specs, /*keep_going=*/false);
  std::vector<SchemeSuiteResult> out;
  out.reserve(outcomes.size());
  for (PointOutcome<SchemeSuiteResult>& o : outcomes)
    out.push_back(std::move(*o.value));
  return out;
}

std::vector<PointOutcome<SchemeSuiteResult>>
ExperimentRunner::run_designs_outcomes(
    const std::vector<DesignSpec>& specs, bool keep_going,
    const std::function<void(std::size_t)>& point_hook) const {
  const std::size_t n = specs.size();
  const std::size_t w_count = traces_.size();
  std::vector<PointOutcome<SchemeSuiteResult>> out(n);

  // Point hooks (chaos injection) run up front in ascending spec order:
  // fail-fast therefore throws the lowest-indexed hook failure
  // deterministically.
  std::vector<char> live(n, 1);
  if (point_hook) {
    for (std::size_t s = 0; s < n; ++s) {
      try {
        point_hook(s);
      } catch (...) {
        if (!keep_going) throw;
        out[s].failure = point_failure_from(s, std::current_exception());
        live[s] = 0;
      }
    }
  }

  // A spec's failure is attributed to its lowest failing workload. Cells
  // run concurrently, so the (workload, failure) pair is kept under a lock.
  std::mutex mu;
  std::vector<std::optional<std::pair<std::size_t, PointFailure>>> spec_fail(n);
  auto note_failure = [&](std::size_t s, std::size_t w, PointFailure f) {
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = spec_fail[s];
    if (!slot || w < slot->first) slot = std::make_pair(w, std::move(f));
  };

  // Every cell is served from the store under its content key when it can
  // be, so any store resumes any sweep. A keep-going sweep also honours
  // poison records: a quarantined cell fails its spec without running
  // (ResultStore::lookup_failure, which --retry-failed disables).
  const bool memo = result_store != nullptr;
  const bool poison = memo && keep_going;
  std::vector<std::vector<std::uint64_t>> keys(n);
  std::vector<std::optional<SimResult>> cells(n * w_count);
  std::vector<std::vector<std::size_t>> missing(w_count);
  for (std::size_t s = 0; s < n; ++s) {
    if (!live[s]) continue;
    if (memo && specs[s].design_hash)
      keys[s] = cell_keys(*specs[s].design_hash);
    for (std::size_t w = 0; w < w_count; ++w) {
      if (!keys[s].empty()) {
        if (auto hit = result_store->lookup(keys[s][w])) {
          cells[s * w_count + w] = std::move(*hit);
          continue;
        }
        if (poison) {
          if (auto stored = result_store->lookup_failure(keys[s][w])) {
            note_failure(s, w,
                         PointFailure{s, std::move(stored->error_type),
                                      std::move(stored->message),
                                      /*quarantined=*/true});
            continue;
          }
        }
      }
      missing[w].push_back(s);
    }
  }

  // A finished cell is validated and persisted by the worker that computed
  // it; a failed one is poisoned at that moment (keep-going only), so a
  // drain or crash later in the sweep loses nothing already decided.
  auto cell_done = [&](std::size_t s, std::size_t w, SimResult r) {
    validate_sim_result_finite(r);
    if (!keys[s].empty()) result_store->store(keys[s][w], r);
    cells[s * w_count + w] = std::move(r);
  };
  auto cell_failed = [&](std::size_t s, std::size_t w,
                         const std::exception_ptr& e) {
    if (poison && !keys[s].empty()) {
      result_store->store_failure(
          keys[s][w], StoredFailure{error_type_of(e), error_message_of(e)});
    }
    note_failure(s, w, point_failure_from(s, e));
  };

  // A work unit: one chunk of a workload's missing specs, replayed from the
  // workload's demand stream, or a single cell simulated on its own when
  // the configuration cannot share the front end (stream == nullptr).
  struct Unit {
    std::size_t w, begin, end;  ///< missing[w][begin, end)
    const DemandStream* stream = nullptr;
  };

  // Replays one chunk of lanes. A lane error is confined to its lane;
  // fail-fast aborts after the chunk's completed lanes have been persisted,
  // so a killed sweep still resumes from every finished cell.
  auto replay_chunk = [&](const Unit& u) {
    std::vector<std::unique_ptr<L2Interface>> designs;
    std::vector<L2Interface*> lanes;
    std::vector<std::size_t> lane_spec;
    designs.reserve(u.end - u.begin);
    std::optional<std::pair<std::size_t, std::exception_ptr>> chunk_err;
    auto lane_failed = [&](std::size_t s, const std::exception_ptr& e) {
      cell_failed(s, u.w, e);
      if (!chunk_err || s < chunk_err->first) chunk_err = std::make_pair(s, e);
    };
    for (std::size_t j = u.begin; j < u.end; ++j) {
      const std::size_t s = missing[u.w][j];
      try {
        designs.push_back(specs[s].build());
        lanes.push_back(designs.back().get());
        lane_spec.push_back(s);
      } catch (...) {
        lane_failed(s, std::current_exception());
      }
    }
    std::vector<BatchLaneOutcome> lane_out =
        simulate_batch_lanes(*u.stream, lanes, sim_options);
    for (std::size_t l = 0; l < lane_out.size(); ++l) {
      if (lane_out[l].ok()) {
        try {
          cell_done(lane_spec[l], u.w, std::move(*lane_out[l].result));
          continue;
        } catch (...) {
          lane_out[l].error = std::current_exception();
        }
      }
      lane_failed(lane_spec[l], lane_out[l].error);
    }
    if (!keep_going && chunk_err) std::rethrow_exception(chunk_err->second);
  };

  // One checked simulate() per cell.
  auto simulate_cell = [&](const Unit& u) {
    const std::size_t s = missing[u.w][u.begin];
    cell_done(s, u.w, simulate(*traces_[u.w], specs[s].build(), sim_options));
  };

  // Unit-level failure (stream build, whole-replay or whole-cell error):
  // every spec of the unit that has no cell yet fails at this workload.
  // Cancellation is never a cell failure: the run stopped, so it
  // propagates and poisons nothing.
  auto unit_failed = [&](const Unit& u, const std::exception_ptr& e) {
    if (!keep_going || is_cancellation(e)) std::rethrow_exception(e);
    for (std::size_t j = u.begin; j < u.end; ++j) {
      const std::size_t s = missing[u.w][j];
      if (!cells[s * w_count + u.w]) cell_failed(s, u.w, e);
    }
  };

  // With a shared front end, every workload with a missing cell runs its
  // L1 front end once and replays the stream into its missing specs, in
  // (workload, chunk) units of <= max(1, sweep_batch) lanes; at
  // sweep_batch 1 every cell is its own unit, so `jobs` workers spread even
  // a single-trace grid. Workloads go in groups of `jobs`: a group builds
  // its streams in parallel, replays its units across the workers and
  // drops its streams before the next group starts, so at most `jobs`
  // streams are alive. Otherwise every missing cell is one unit, all in one
  // group.
  std::vector<std::size_t> todo;
  for (std::size_t w = 0; w < w_count; ++w) {
    if (!missing[w].empty()) todo.push_back(w);
  }
  SweepExecutor ex(jobs);
  const bool shared = batch_eligible(sim_options);
  const std::size_t lane_cap = shared ? std::max(1u, sweep_batch) : 1;
  const std::size_t group =
      shared ? ex.jobs() : std::max<std::size_t>(1, todo.size());
  for (std::size_t g = 0; g < todo.size(); g += group) {
    const std::size_t g_end = std::min(todo.size(), g + group);
    std::vector<std::optional<DemandStream>> streams(g_end - g);
    if (shared) {
      streams =
          ex.map(g_end - g, [&](std::size_t i) -> std::optional<DemandStream> {
            const std::size_t w = todo[g + i];
            try {
              return build_demand_stream(*traces_[w], sim_options);
            } catch (...) {
              unit_failed({w, 0, missing[w].size()}, std::current_exception());
              return std::nullopt;
            }
          });
    }
    std::vector<Unit> units;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (shared && !streams[i]) continue;
      const std::size_t w = todo[g + i];
      const std::size_t m = missing[w].size();
      for (std::size_t pos = 0; pos < m; pos += lane_cap) {
        units.push_back({w, pos, std::min(m, pos + lane_cap),
                         shared ? &*streams[i] : nullptr});
      }
    }
    ex.for_each(units.size(), [&](std::size_t i) {
      try {
        if (units[i].stream)
          replay_chunk(units[i]);
        else
          simulate_cell(units[i]);
      } catch (...) {
        unit_failed(units[i], std::current_exception());
      }
    });
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (!live[s]) continue;
    if (spec_fail[s]) {
      out[s].failure = std::move(spec_fail[s]->second);
      continue;
    }
    SchemeSuiteResult r;
    r.name = specs[s].name;
    if (specs[s].kind) r.kind = *specs[s].kind;
    r.per_workload.reserve(w_count);
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      SimResult& res = *cells[s * w_count + w];
      miss_sum += res.l2_miss_rate();
      r.per_workload.push_back(std::move(res));
    }
    if (w_count > 0)
      r.avg_miss_rate = miss_sum / static_cast<double>(w_count);
    out[s].value = std::move(r);
  }
  return out;
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_schemes(
    const std::vector<SchemeKind>& kinds, const SchemeParams& params) const {
  std::vector<DesignSpec> specs;
  specs.reserve(kinds.size());
  for (SchemeKind kind : kinds) specs.push_back(scheme_design(kind, params));
  return run_designs(specs);
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_headline(
    const SchemeParams& params) const {
  std::vector<SchemeSuiteResult> all = run_schemes(headline_schemes(), params);
  normalize(all);
  return all;
}

void ExperimentRunner::normalize(std::vector<SchemeSuiteResult>& results) {
  if (results.empty()) return;
  const SchemeSuiteResult& base = results[0];
  for (SchemeSuiteResult& r : results) {
    std::vector<double> e_cache, e_total, t_exec;
    for (std::size_t w = 0; w < r.per_workload.size(); ++w) {
      const SimResult& s = r.per_workload[w];
      const SimResult& b = base.per_workload[w];
      const double base_cache = b.l2_energy.cache_nj();
      const double base_total = b.l2_energy.total_nj();
      const double base_cycles = static_cast<double>(b.cycles);
      if (base_cache > 0) e_cache.push_back(s.l2_energy.cache_nj() / base_cache);
      if (base_total > 0) e_total.push_back(s.l2_energy.total_nj() / base_total);
      if (base_cycles > 0)
        t_exec.push_back(static_cast<double>(s.cycles) / base_cycles);
    }
    r.norm_cache_energy = geomean(e_cache);
    r.norm_total_energy = geomean(e_total);
    r.norm_exec_time = geomean(t_exec);
  }
}

std::vector<FaultSweepPoint> run_fault_sweep(const ExperimentRunner& runner,
                                             SchemeKind kind,
                                             const std::vector<double>& rates,
                                             const SchemeParams& tmpl) {
  // One design per rate, rate-0 reference first: the sweep reports
  // degradation caused by faults, not by the scheme itself. As one
  // run_designs() grid every workload runs its L1 front end once for all
  // rates, under the same keys as per-rate run_scheme() calls.
  std::vector<DesignSpec> specs;
  specs.reserve(rates.size() + 1);
  SchemeParams clean = tmpl;
  clean.fault = FaultConfig{};
  specs.push_back(scheme_design(kind, clean));
  for (double rate : rates) {
    SchemeParams p = tmpl;
    p.fault = FaultConfig::from_rate(rate, tmpl.fault.ecc,
                                     tmpl.fault.way_disable_threshold,
                                     tmpl.fault.seed);
    specs.push_back(scheme_design(kind, p));
  }
  const std::vector<SchemeSuiteResult> grid = runner.run_designs(specs);
  const std::size_t w_count = runner.traces().size();

  std::vector<FaultSweepPoint> out;
  out.reserve(rates.size());
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    FaultSweepPoint pt;
    pt.rate = rates[ri];
    std::vector<double> e_ratios, t_ratios;
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      const SimResult& s = grid[ri + 1].per_workload[w];
      const SimResult& b = grid[0].per_workload[w];  // rate-0 reference
      if (b.l2_energy.cache_nj() > 0)
        e_ratios.push_back(s.l2_energy.cache_nj() / b.l2_energy.cache_nj());
      if (b.cycles > 0) {
        t_ratios.push_back(static_cast<double>(s.cycles) /
                           static_cast<double>(b.cycles));
      }
      miss_sum += s.l2_miss_rate();
      pt.ecc_corrections += s.l2.ecc_corrections;
      pt.fault_losses += s.l2.fault_losses;
      pt.dirty_losses += s.l2.fault_lost_dirty;
      pt.scrub_repairs += s.l2.scrub_repairs;
      pt.quarantined_ways += s.l2_quarantined_ways;
    }
    pt.norm_cache_energy = geomean(e_ratios);
    pt.norm_exec_time = geomean(t_ratios);
    if (w_count > 0)
      pt.avg_miss_rate = miss_sum / static_cast<double>(w_count);
    out.push_back(pt);
  }
  return out;
}

namespace {

SeedStat to_stat(const RunningStat& r) {
  return {r.mean(), r.stddev(), r.min(), r.max()};
}

}  // namespace

std::vector<MultiSeedResult> run_multi_seed(
    const std::vector<AppId>& apps, std::uint64_t accesses,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<SchemeKind>& schemes, const SchemeParams& params,
    unsigned jobs, ResultStore* store) {
  const std::size_t s_count = schemes.size();

  // One run_schemes() grid per seed: the seed's workloads each run their L1
  // front end once for every scheme, `jobs` spreads the grid's cells, and
  // `store` memoizes them (their keys fold in the seed via the trace
  // fingerprints). Seeds go in order, so the statistics accumulate
  // deterministically.
  std::vector<RunningStat> energy(s_count);
  std::vector<RunningStat> time(s_count);
  std::vector<RunningStat> miss(s_count);
  for (std::uint64_t seed : seeds) {
    ExperimentRunner runner(apps, accesses, seed);
    runner.jobs = jobs;
    runner.result_store = store;
    std::vector<SchemeSuiteResult> per_seed =
        runner.run_schemes(schemes, params);
    ExperimentRunner::normalize(per_seed);
    for (std::size_t i = 0; i < s_count; ++i) {
      energy[i].add(per_seed[i].norm_cache_energy);
      time[i].add(per_seed[i].norm_exec_time);
      miss[i].add(per_seed[i].avg_miss_rate);
    }
  }

  std::vector<MultiSeedResult> out;
  out.reserve(s_count);
  for (std::size_t i = 0; i < s_count; ++i) {
    MultiSeedResult r;
    r.kind = schemes[i];
    r.name = scheme_name(schemes[i]);
    r.cache_energy = to_stat(energy[i]);
    r.exec_time = to_stat(time[i]);
    r.miss_rate = to_stat(miss[i]);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mobcache
