#include "exp/runner.hpp"

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

namespace {

/// Content identity of a built-in scheme: kind + every SchemeParams field.
std::uint64_t scheme_design_hash(SchemeKind kind, const SchemeParams& p) {
  return ContentHasher()
      .mix(std::string("scheme"))
      .mix(static_cast<std::uint64_t>(kind))
      .mix(hash_scheme_params(p))
      .digest();
}

/// simulate() + the numeric invariant gate — the only simulate entry the
/// runner uses, so every aggregated cell has been validated.
SimResult checked_simulate(const Trace& trace, std::unique_ptr<L2Interface> l2,
                           const SimOptions& opts) {
  SimResult r = simulate(trace, std::move(l2), opts);
  validate_sim_result_finite(r);
  return r;
}

}  // namespace

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

MetricRegistry SchemeSuiteResult::merged_metrics() const {
  MetricRegistry merged;
  for (const auto& tel : per_workload_telemetry) {
    if (tel) merged.merge(tel->metrics());
  }
  return merged;
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

namespace {

/// One (scheme/design, workload) execution — the unit SweepExecutor shards.
struct SuiteCell {
  SimResult res;
  std::shared_ptr<Telemetry> tel;
};

}  // namespace

bool ExperimentRunner::memoizable() const {
  // Telemetry sessions and eviction observers are side channels a cached
  // SimResult cannot replay — those runs always simulate.
  return result_store != nullptr && !collect_telemetry &&
         !sim_options.l2_eviction_observer;
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
  d.design_hash = scheme_design_hash(kind, params);
  d.kind = kind;
  return d;
}

SchemeSuiteResult ExperimentRunner::run_scheme(SchemeKind kind,
                                               const SchemeParams& params) const {
  SchemeSuiteResult r =
      run_custom(scheme_name(kind), [&] { return build_scheme(kind, params); },
                 scheme_design_hash(kind, params));
  r.kind = kind;
  return r;
}

SchemeSuiteResult ExperimentRunner::run_custom(
    const std::string& name,
    const std::function<std::unique_ptr<L2Interface>()>& builder,
    std::optional<std::uint64_t> design_hash) const {
  return run_custom_impl(name, builder, design_hash, jobs);
}

SchemeSuiteResult ExperimentRunner::run_custom_impl(
    const std::string& name,
    const std::function<std::unique_ptr<L2Interface>()>& builder,
    std::optional<std::uint64_t> design_hash, unsigned exec_jobs) const {
  SchemeSuiteResult out;
  out.name = name;

  SweepExecutor ex(exec_jobs);
  if (design_hash && memoizable()) {
    std::vector<SimResult> results = memoized_map(
        ex, result_store, cell_keys(*design_hash), [&](std::size_t i) {
          return checked_simulate(*traces_[i], builder(), sim_options);
        });
    out.per_workload.reserve(results.size());
    double miss_sum = 0.0;
    for (SimResult& r : results) {
      miss_sum += r.l2_miss_rate();
      out.per_workload.push_back(std::move(r));
    }
    if (!traces_.empty())
      out.avg_miss_rate = miss_sum / static_cast<double>(traces_.size());
    return out;
  }

  std::vector<SuiteCell> cells = ex.map(traces_.size(), [&](std::size_t i) {
    SimOptions opts = sim_options;
    SuiteCell cell;
    if (collect_telemetry) {
      cell.tel = std::make_shared<Telemetry>();
      cell.tel->set_sample_interval(telemetry_sample_interval);
      opts.telemetry = cell.tel.get();
    }
    cell.res = checked_simulate(*traces_[i], builder(), opts);
    return cell;
  });

  out.per_workload.reserve(cells.size());
  double miss_sum = 0.0;
  for (SuiteCell& cell : cells) {
    miss_sum += cell.res.l2_miss_rate();
    out.per_workload.push_back(std::move(cell.res));
    if (collect_telemetry)
      out.per_workload_telemetry.push_back(std::move(cell.tel));
  }
  if (!traces_.empty())
    out.avg_miss_rate = miss_sum / static_cast<double>(traces_.size());
  return out;
}

bool ExperimentRunner::batchable() const {
  return sweep_batch >= 2 && !collect_telemetry && batch_eligible(sim_options);
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
  if (batchable()) return run_designs_batched(specs, keep_going, point_hook);

  // Per-point fallback: specs across `jobs` workers, each spec a serial
  // suite evaluation — exactly the outer-executor / inner-serial structure
  // the sweep benches ran before batching existed, so results AND
  // result-store traffic are unchanged.
  SweepExecutor ex(jobs);
  auto point = [&](std::size_t s) {
    if (point_hook) point_hook(s);
    SchemeSuiteResult r = run_custom_impl(specs[s].name, specs[s].build,
                                          specs[s].design_hash,
                                          /*exec_jobs=*/1);
    if (specs[s].kind) r.kind = *specs[s].kind;
    return r;
  };
  if (keep_going) return ex.map_outcomes(n, point);
  std::vector<SchemeSuiteResult> values = ex.map(n, point);
  std::vector<PointOutcome<SchemeSuiteResult>> out(n);
  for (std::size_t s = 0; s < n; ++s) out[s].value = std::move(values[s]);
  return out;
}

std::vector<PointOutcome<SchemeSuiteResult>>
ExperimentRunner::run_designs_batched(
    const std::vector<DesignSpec>& specs, bool keep_going,
    const std::function<void(std::size_t)>& point_hook) const {
  const std::size_t n = specs.size();
  const std::size_t w_count = traces_.size();
  std::vector<PointOutcome<SchemeSuiteResult>> out(n);

  // Point hooks (chaos injection) run up front in ascending spec order:
  // fail-fast therefore throws the lowest-indexed hook failure
  // deterministically, matching the serial per-point sweep.
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

  // Warm cells come straight from the store under the *same* content keys
  // the per-point path uses — a store written per-point resumes batched and
  // vice versa. Keep-going deliberately does not consult poison records
  // here: the per-point grid path (fail-fast memoized_map inside each
  // point) never does either, and equivalence wins over quarantine reuse.
  const bool memo = memoizable();
  std::vector<std::vector<std::uint64_t>> keys(n);
  std::vector<std::optional<SimResult>> cells(n * w_count);
  std::vector<std::vector<std::size_t>> unit_missing(w_count);
  for (std::size_t s = 0; s < n; ++s) {
    if (!live[s]) continue;
    const bool spec_memo = memo && specs[s].design_hash.has_value();
    if (spec_memo) keys[s] = cell_keys(*specs[s].design_hash);
    for (std::size_t w = 0; w < w_count; ++w) {
      if (spec_memo) {
        if (auto hit = result_store->lookup(keys[s][w])) {
          cells[s * w_count + w] = std::move(*hit);
          continue;
        }
      }
      unit_missing[w].push_back(s);
    }
  }

  // A spec's failure is attributed to its lowest failing workload — the
  // per-point path's serial inner sweep surfaces exactly that one. Units
  // run concurrently, so the (workload, error) pair is kept under a lock.
  std::mutex mu;
  std::vector<std::optional<std::pair<std::size_t, std::exception_ptr>>>
      spec_fail(n);
  auto note_failure = [&](std::size_t s, std::size_t w,
                          const std::exception_ptr& e) {
    std::lock_guard<std::mutex> lock(mu);
    auto& f = spec_fail[s];
    if (!f || w < f->first) f = std::make_pair(w, e);
  };

  // One unit per workload: decode/L1-simulate the trace once, then replay
  // its demand stream into the missing specs in chunks of <= sweep_batch
  // lanes. Units shard across the executor; lanes within a unit are serial.
  const std::size_t lane_cap = sweep_batch;
  SweepExecutor ex(jobs);
  ex.for_each(w_count, [&](std::size_t w) {
    const std::vector<std::size_t>& todo = unit_missing[w];
    if (todo.empty()) return;
    try {
      const DemandStream stream =
          build_demand_stream(*traces_[w], sim_options);
      std::size_t pos = 0;
      while (pos < todo.size()) {
        const std::size_t chunk_end =
            std::min(todo.size(), pos + lane_cap);
        std::vector<std::unique_ptr<L2Interface>> designs;
        std::vector<L2Interface*> lanes;
        std::vector<std::size_t> lane_spec;
        designs.reserve(chunk_end - pos);
        std::optional<std::pair<std::size_t, std::exception_ptr>> chunk_err;
        auto chunk_failed = [&](std::size_t s, const std::exception_ptr& e) {
          note_failure(s, w, e);
          if (!chunk_err || s < chunk_err->first)
            chunk_err = std::make_pair(s, e);
        };
        for (std::size_t j = pos; j < chunk_end; ++j) {
          const std::size_t s = todo[j];
          try {
            designs.push_back(specs[s].build());
            lanes.push_back(designs.back().get());
            lane_spec.push_back(s);
          } catch (...) {
            chunk_failed(s, std::current_exception());
          }
        }
        std::vector<BatchLaneOutcome> lane_out =
            simulate_batch_lanes(stream, lanes, sim_options);
        for (std::size_t l = 0; l < lane_out.size(); ++l) {
          const std::size_t s = lane_spec[l];
          if (lane_out[l].ok()) {
            try {
              SimResult r = std::move(*lane_out[l].result);
              validate_sim_result_finite(r);
              if (memo && !keys[s].empty()) result_store->store(keys[s][w], r);
              cells[s * w_count + w] = std::move(r);
              continue;
            } catch (...) {
              lane_out[l].error = std::current_exception();
            }
          }
          chunk_failed(s, lane_out[l].error);
        }
        // Fail-fast aborts after the chunk's completed lanes have been
        // persisted: a killed sweep still resumes from every finished cell.
        if (!keep_going && chunk_err)
          std::rethrow_exception(chunk_err->second);
        pos = chunk_end;
      }
    } catch (...) {
      const std::exception_ptr e = std::current_exception();
      if (!keep_going || is_cancellation(e)) throw;
      // Unit-level failure (stream build, batch-wide error): every spec of
      // this unit that has no cell yet fails at this workload.
      for (std::size_t s : todo) {
        if (!cells[s * w_count + w]) note_failure(s, w, e);
      }
    }
  });

  for (std::size_t s = 0; s < n; ++s) {
    if (!live[s]) continue;
    if (spec_fail[s]) {
      if (!keep_going) std::rethrow_exception(spec_fail[s]->second);
      out[s].failure = point_failure_from(s, spec_fail[s]->second);
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
  if (batchable()) {
    std::vector<DesignSpec> specs;
    specs.reserve(kinds.size());
    for (SchemeKind kind : kinds) specs.push_back(scheme_design(kind, params));
    return run_designs(specs);
  }

  const std::size_t w_count = traces_.size();

  // One flat (scheme × workload) sweep: cell c = (kinds[c / W], c % W).
  SweepExecutor ex(jobs);
  std::vector<SuiteCell> cells;
  if (memoizable()) {
    std::vector<std::uint64_t> keys;
    keys.reserve(kinds.size() * w_count);
    for (SchemeKind kind : kinds) {
      for (std::uint64_t k : cell_keys(scheme_design_hash(kind, params)))
        keys.push_back(k);
    }
    std::vector<SimResult> results =
        memoized_map(ex, result_store, keys, [&](std::size_t c) {
          return checked_simulate(*traces_[c % w_count],
                                  build_scheme(kinds[c / w_count], params),
                                  sim_options);
        });
    cells.resize(results.size());
    for (std::size_t c = 0; c < results.size(); ++c)
      cells[c].res = std::move(results[c]);
  } else {
    cells = ex.map(kinds.size() * w_count, [&](std::size_t c) {
      const SchemeKind kind = kinds[c / w_count];
      const std::size_t w = c % w_count;
      SimOptions opts = sim_options;
      SuiteCell cell;
      if (collect_telemetry) {
        cell.tel = std::make_shared<Telemetry>();
        cell.tel->set_sample_interval(telemetry_sample_interval);
        opts.telemetry = cell.tel.get();
      }
      cell.res = checked_simulate(*traces_[w], build_scheme(kind, params), opts);
      return cell;
    });
  }

  std::vector<SchemeSuiteResult> out;
  out.reserve(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    SchemeSuiteResult r;
    r.kind = kinds[k];
    r.name = scheme_name(kinds[k]);
    r.per_workload.reserve(w_count);
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      SuiteCell& cell = cells[k * w_count + w];
      miss_sum += cell.res.l2_miss_rate();
      r.per_workload.push_back(std::move(cell.res));
      if (collect_telemetry)
        r.per_workload_telemetry.push_back(std::move(cell.tel));
    }
    if (w_count > 0) r.avg_miss_rate = miss_sum / static_cast<double>(w_count);
    out.push_back(std::move(r));
  }
  return out;
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
  // Per-rate parameter sets, rate-0 reference first: the sweep reports
  // degradation caused by faults, not by the scheme itself. Each is a pure
  // function of its index, so the flat (rate × workload) sweep below is
  // execution-order independent.
  std::vector<SchemeParams> per_rate;
  per_rate.reserve(rates.size() + 1);
  SchemeParams clean = tmpl;
  clean.fault = FaultConfig{};
  per_rate.push_back(clean);
  for (double rate : rates) {
    SchemeParams p = tmpl;
    p.fault = FaultConfig::from_rate(rate, tmpl.fault.ecc,
                                     tmpl.fault.way_disable_threshold,
                                     tmpl.fault.seed);
    per_rate.push_back(p);
  }

  const auto& traces = runner.traces();
  const std::size_t w_count = traces.size();
  SweepExecutor ex(runner.jobs);
  auto cell_fn = [&](std::size_t c) {
    const SchemeParams& p = per_rate[c / w_count];
    SimResult r = simulate(*traces[c % w_count], build_scheme(kind, p),
                           runner.sim_options);
    validate_sim_result_finite(r);
    return r;
  };
  std::vector<SimResult> cells;
  if (runner.result_store != nullptr &&
      !runner.sim_options.l2_eviction_observer) {
    const std::uint64_t opts = hash_sim_options(runner.sim_options);
    const std::uint64_t tech = hash_technology(technology());
    std::vector<std::uint64_t> keys;
    keys.reserve(per_rate.size() * w_count);
    for (const SchemeParams& p : per_rate) {
      const std::uint64_t dh = scheme_design_hash(kind, p);
      for (const auto& t : traces)
        keys.push_back(result_point_key(dh, t->fingerprint(), opts, tech));
    }
    cells = memoized_map(ex, runner.result_store, keys, cell_fn);
  } else {
    cells = ex.map(per_rate.size() * w_count, cell_fn);
  }

  std::vector<FaultSweepPoint> out;
  out.reserve(rates.size());
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    FaultSweepPoint pt;
    pt.rate = rates[ri];
    std::vector<double> e_ratios, t_ratios;
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      const SimResult& s = cells[(ri + 1) * w_count + w];
      const SimResult& b = cells[w];  // rate-0 reference row
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

  // Flat (seed × scheme) sweep. Each cell derives everything from its index
  // — suite seed seeds[c / S], scheme schemes[c % S] — and the TraceCache
  // makes concurrent cells of one seed share a single generated suite. The
  // per-seed runner inherits `store`, so the inner per-workload cells are
  // memoized (their keys fold in the seed via the trace fingerprints).
  SweepExecutor ex(jobs);
  std::vector<SchemeSuiteResult> cells =
      ex.map(seeds.size() * s_count, [&](std::size_t c) {
        ExperimentRunner runner(apps, accesses, seeds[c / s_count]);
        runner.result_store = store;
        return runner.run_scheme(schemes[c % s_count], params);
      });

  // Normalize per seed, then accumulate in seed order — deterministic
  // regardless of which worker finished first.
  std::vector<RunningStat> energy(s_count);
  std::vector<RunningStat> time(s_count);
  std::vector<RunningStat> miss(s_count);
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    std::vector<SchemeSuiteResult> per_seed(
        std::make_move_iterator(cells.begin() + si * s_count),
        std::make_move_iterator(cells.begin() + (si + 1) * s_count));
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
