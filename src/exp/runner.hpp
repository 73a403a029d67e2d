#pragma once
/// \file runner.hpp
/// Workload-suite × scheme experiment driver with baseline normalization —
/// the engine behind every bench binary.
///
/// All suite/sweep execution flows through SweepExecutor (exp/parallel.hpp):
/// set `jobs` > 1 (or 0 = auto) and the (scheme × workload) cells of a run
/// are sharded across worker threads. Results are assembled in cell-index
/// order and every cell is a pure function of its index, so a parallel run
/// is bit-identical to `jobs = 1`. Traces come from the process-wide
/// TraceCache via cached_suite(): generated once, shared read-only.
///
/// Attach a ResultStore (exp/result_store.hpp) via `result_store` and every
/// deterministic (scheme × workload) cell is memoized across process
/// lifetimes: cells whose content key is already stored are served without
/// re-simulation, freshly computed cells are persisted as they finish, and a
/// killed sweep resumes from its last completed point.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/parallel.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {

class ResultStore;

/// One point of a multi-design sweep grid (ExperimentRunner::run_designs): a
/// named L2 factory plus its memoization identity. The factory is invoked
/// once per workload, possibly from worker threads — building fresh objects
/// from captured read-only state is the contract. `design_hash` opts the
/// point into result-store memoization; `kind` is carried onto
/// SchemeSuiteResult::kind when set.
struct DesignSpec {
  std::string name;
  std::function<std::unique_ptr<L2Interface>()> build;
  std::optional<std::uint64_t> design_hash;
  std::optional<SchemeKind> kind;
};

/// The DesignSpec equivalent of run_scheme(kind, params): same name, same
/// builder, same content hash — a grid built from these memoizes into the
/// same result-store records as per-point run_scheme calls.
DesignSpec scheme_design(SchemeKind kind, const SchemeParams& params = {});

/// Throws NumericError (naming the scheme and workload) when any
/// energy/timing lane of `r` is NaN or infinite. The runner calls this on
/// every computed cell — before the result can reach a result store,
/// a JSON artifact, or a normalization divide — so numeric garbage fails
/// the point loudly instead of silently poisoning downstream aggregates.
void validate_sim_result_finite(const SimResult& r);

/// One scheme evaluated over a suite.
struct SchemeSuiteResult {
  SchemeKind kind = SchemeKind::BaselineSram;
  std::string name;
  std::vector<SimResult> per_workload;  ///< aligned with the suite order

  /// Normalized-to-baseline aggregates (geomean over workloads); filled by
  /// ExperimentRunner when a baseline is present.
  double norm_cache_energy = 1.0;
  double norm_total_energy = 1.0;
  double norm_exec_time = 1.0;
  double avg_miss_rate = 0.0;
};

class ExperimentRunner {
 public:
  /// `apps` defines the suite; traces come from the TraceCache (generated
  /// once process-wide for this (apps, accesses, seed), shared read-only by
  /// all schemes and all concurrently-running runners).
  ExperimentRunner(std::vector<AppId> apps, std::uint64_t accesses,
                   std::uint64_t seed = 1);

  /// Uses pre-generated traces (e.g. loaded from disk) instead of
  /// synthesizing a suite.
  explicit ExperimentRunner(std::vector<Trace> traces);

  /// Runs one scheme: run_designs() over its scheme_design() spec.
  SchemeSuiteResult run_scheme(SchemeKind kind,
                               const SchemeParams& params = {}) const;

  /// Runs several schemes as one grid: run_designs() over their
  /// scheme_design() specs, so the schemes share each workload's L1 front
  /// end whenever the configuration allows it. No normalization is applied.
  std::vector<SchemeSuiteResult> run_schemes(
      const std::vector<SchemeKind>& kinds,
      const SchemeParams& params = {}) const;

  /// Runs a sweep grid of designs (one suite evaluation per spec), in spec
  /// order. Each (design × workload) cell is served from `result_store`
  /// when its content key is stored; the missing cells are computed, then
  /// validated (validate_sim_result_finite) and persisted by the worker
  /// that computed them. With a batch-eligible configuration, each
  /// workload that misses a cell runs the L1 front end once
  /// (sim/batch.hpp) and replays its demand stream into the missing
  /// designs in passes of up to max(1, `sweep_batch`) lanes; at most `jobs`
  /// streams are alive at a time. Otherwise (inclusive L2, prefetcher, a
  /// `sim_options.telemetry` session) each missing cell is one simulate()
  /// call, the cells sharded across `jobs` workers; the session is shared
  /// by those calls, so give it one cell per call or `jobs` 1. Both
  /// strategies produce byte-identical SchemeSuiteResults and result-store
  /// records (docs/SWEEP_ENGINE.md). Fail-fast: the first failing cell
  /// aborts the sweep.
  std::vector<SchemeSuiteResult> run_designs(
      const std::vector<DesignSpec>& specs) const;

  /// Keep-going flavour of run_designs(): a failing spec becomes a
  /// PointFailure in its outcome slot (index = spec index) instead of
  /// aborting, attributed to the spec's lowest failing workload;
  /// cancellation still propagates and poisons nothing. With a memoizable
  /// store, a failing cell is persisted as a poison record when it fails,
  /// and a cell with a poison record (ResultStore::lookup_failure, which
  /// honours retry_failed) is not run: it fails its spec with
  /// PointFailure::quarantined set. `point_hook`, when set, runs for every
  /// spec in ascending order before any cell (chaos injection seam — a
  /// throwing hook fails that spec). With keep_going == false this *is*
  /// run_designs(), returned in outcome form.
  std::vector<PointOutcome<SchemeSuiteResult>> run_designs_outcomes(
      const std::vector<DesignSpec>& specs, bool keep_going,
      const std::function<void(std::size_t)>& point_hook = {}) const;

  /// True when run_designs()/run_schemes() replay more than one design lane
  /// per pass: `sweep_batch` >= 2 and a batch-eligible SimOptions
  /// (batch_eligible() in sim/batch.hpp). With `sweep_batch` <= 1 the front
  /// end is still shared, one lane per pass.
  bool batchable() const;

  /// Runs all headline schemes and normalizes against the first (baseline).
  std::vector<SchemeSuiteResult> run_headline(
      const SchemeParams& params = {}) const;

  /// Normalizes `results` in place against `results[0]` per workload, then
  /// geomeans across workloads.
  static void normalize(std::vector<SchemeSuiteResult>& results);

  const std::vector<std::shared_ptr<const Trace>>& traces() const {
    return traces_;
  }
  /// Convenience view of one suite trace.
  const Trace& trace(std::size_t i) const { return *traces_[i]; }
  const std::vector<AppId>& apps() const { return apps_; }

  SimOptions sim_options;  ///< shared hierarchy/timing configuration

  /// Worker threads for this runner's (scheme × workload) cells. 1 = serial
  /// (the default — library users opt in), 0 = auto (MOBCACHE_JOBS env,
  /// then hardware concurrency), N = exactly N. Results are identical for
  /// every value; only wall-clock changes.
  unsigned jobs = 1;

  /// Persistent memoization of completed cells (null = off). A
  /// `sim_options.telemetry` session does not opt out: a stored cell is
  /// served and never reaches the session; a missing cell is simulated
  /// into it.
  ResultStore* result_store = nullptr;

  /// Design lanes per demand-stream replay pass in run_designs()/
  /// run_schemes(). 0/1 = one lane per pass (the default: each point gets
  /// its own replay and deadline window, and `jobs` workers spread the
  /// points), N >= 2 = up to N lanes per pass. Either way an eligible
  /// runner runs each workload's L1 front end at most once per sweep.
  /// Benches wire this to --batch / MOBCACHE_SWEEP_BATCH
  /// (bench_sweep_batch). Results are byte-identical for every value; only
  /// wall-clock changes.
  unsigned sweep_batch = 1;

 private:
  /// Per-cell content keys for a (design × workload) grid slice.
  std::vector<std::uint64_t> cell_keys(std::uint64_t design_hash) const;

  std::vector<AppId> apps_;
  std::vector<std::shared_ptr<const Trace>> traces_;
};

/// One point of the error-rate × energy/CPI resilience sweep (bench E21):
/// a scheme rerun with fault injection at `rate`, normalized against the
/// same scheme at rate 0 over the same traces. Absolute counters are summed
/// across the suite's workloads.
struct FaultSweepPoint {
  double rate = 0.0;
  double norm_cache_energy = 1.0;  ///< geomean vs the rate-0 run
  double norm_exec_time = 1.0;
  double avg_miss_rate = 0.0;
  std::uint64_t ecc_corrections = 0;
  std::uint64_t fault_losses = 0;     ///< uncorrectable detected losses
  std::uint64_t dirty_losses = 0;     ///< losses that dropped dirty data
  std::uint64_t scrub_repairs = 0;    ///< decayed blocks healed by scrub
  std::uint64_t quarantined_ways = 0; ///< summed over workload runs
};

/// Runs `kind` across `rates` (plus a rate-0 reference) over this runner's
/// traces. `tmpl.fault` supplies the non-rate fault knobs (ECC kind,
/// quarantine threshold, seed); each point swaps in
/// FaultConfig::from_rate(rate, ...) derived from it. rates containing 0.0
/// produce an exactly-1.0 normalized point — the bit-identity anchor.
/// Executes as one runner.run_designs() grid of scheme_design(kind, p)
/// specs, one per rate, so the cells share result-store records with
/// run_scheme() and each workload's L1 front end runs once.
std::vector<FaultSweepPoint> run_fault_sweep(const ExperimentRunner& runner,
                                             SchemeKind kind,
                                             const std::vector<double>& rates,
                                             const SchemeParams& tmpl = {});

/// Mean and sample standard deviation of a normalized metric across seeds.
struct SeedStat {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// One scheme's cross-seed statistics.
struct MultiSeedResult {
  SchemeKind kind = SchemeKind::BaselineSram;
  std::string name;
  SeedStat cache_energy;
  SeedStat exec_time;
  SeedStat miss_rate;
};

/// Runs `schemes` over fresh suites generated from each seed, normalizing
/// against schemes.front() per seed, and aggregates across seeds. This is
/// the statistical-rigor pass: a conclusion that does not survive the seed
/// noise band is not a conclusion (bench E14).
///
/// Each seed is one runner with `jobs` and `store` set and one
/// run_schemes() grid, so every (seed, workload) runs its L1 front end
/// once for all schemes. The cross-seed statistics are accumulated in seed
/// order, so `jobs` does not change a single output bit. Use
/// derived_seeds(base, n) (exp/parallel.hpp) to build the seed list from
/// one base seed.
std::vector<MultiSeedResult> run_multi_seed(
    const std::vector<AppId>& apps, std::uint64_t accesses,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<SchemeKind>& schemes,
    const SchemeParams& params = {}, unsigned jobs = 1,
    ResultStore* store = nullptr);

}  // namespace mobcache
