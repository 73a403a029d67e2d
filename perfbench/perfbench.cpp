/// \file perfbench.cpp
/// The repository benchmark driver. One process runs one named workload
/// through mobcache's public entry points for a fixed wall-clock budget,
/// checks every output against stored golden digests and prints one JSON
/// result line (the last line of stdout).
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --golden FILE --work-dir DIR
///   perfbench --workload W --regen-golden --work-dir DIR   (prints goldens)
///
/// --trace 0 reports end-to-end metrics measured with tracing off.
/// --trace 1 runs the workload untraced for a third of the budget, then
/// runs the same requests decomposed into calls of each layer's public
/// functions, each wrapped in a span, and reports per-layer metrics. Spans
/// are kept in memory and written to DIR/perfbench-spans-<workload>.jsonl at
/// the end.
/// perfbench/README.md defines every metric and workload.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/config_batch.hpp"
#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/scheme.hpp"
#include "exp/fleet.hpp"
#include "exp/parallel.hpp"
#include "exp/bench_harness.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

using namespace mobcache;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- sizing --
// Trace seeds form a pool of kSeedPool consecutive values starting at the
// E9 canonical seed, so that every input a run can see has a stored golden.
// --seed N selects pool slot (N - 42) mod kSeedPool, and a run's inputs
// start at that slot: --seed 42 starts at the E9 headline input.
constexpr std::uint64_t kCanonicalSeed = 42;
constexpr std::uint64_t kSeedPool = 32;
/// The suite: kSuiteSeeds consecutive pool seeds x the eight interactive
/// apps, kSuiteRecords records per trace. Every workload reports the paper
/// gap over the whole suite; headline and design_sweep requests cycle over
/// its first kRequestSeeds seeds.
constexpr std::uint64_t kSuiteSeeds = 8;
constexpr std::uint64_t kRequestSeeds = 4;
constexpr std::uint64_t kSuiteRecords = 200'000;
/// Worker threads of the untimed accuracy pass (the timed work is serial).
constexpr unsigned kAccuracyJobs = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Sessions per fleet request, the population's mean session length, and
/// the number of fleet seeds a run's requests cycle over.
constexpr std::uint64_t kFleetSessions = 24;
constexpr std::uint64_t kFleetMeanAccesses = 50'000;
constexpr std::uint64_t kFleetSeeds = 8;
/// Service: requests per throughput block (4 new + 12 repeats), the fewest
/// requests a timed phase makes (so request_ms.p95 has at least 10 samples
/// beyond it), a hard cap on requests per run (the new-request key space is
/// kSeedPool * 8 apps), how many recent new requests a repeat draws from,
/// and how often the traced run reopens the store the run has filled.
constexpr std::size_t kServiceBlock = 16;
constexpr std::size_t kServiceMinRequests = 200;
constexpr std::size_t kServiceMaxRequests = 4 * kSeedPool * 8;
constexpr std::size_t kServiceRepeatWindow = 8;
constexpr int kStoreReopens = 5;
static_assert(kServiceMinRequests + kServiceBlock <= kServiceMaxRequests / 2,
              "a traced run makes two phases of at least the minimum");

/// The abstract's headline numbers (PAPER.md): static partitioning with
/// multi-retention STT-RAM cuts cache energy to 0.25 at 1.02x time; dynamic
/// partitioning with STT-RAM to 0.15 at 1.03x.
constexpr double kPaperSpEnergy = 0.25;
constexpr double kPaperSpTime = 1.02;
constexpr double kPaperDpEnergy = 0.15;
constexpr double kPaperDpTime = 1.03;

std::uint64_t pool_slot(std::uint64_t seed) {
  return (seed % kSeedPool + kSeedPool - kCanonicalSeed % kSeedPool) %
         kSeedPool;
}
std::uint64_t pool_seed(std::uint64_t slot) {
  return kCanonicalSeed + slot % kSeedPool;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of `v` at q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest quantile that leaves at least ten samples beyond it, never
/// below the median.
double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(n));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The CLI scheme vocabulary (parse_scheme_kind), in headline order.
std::string cli_scheme_name(SchemeKind k) {
  for (const char* n : {"base", "shrunk", "sharedstt", "drowsy", "victim",
                        "sp", "spmrstt", "dp", "dpstt"}) {
    if (parse_scheme_kind(n) == k) return n;
  }
  throw std::logic_error("scheme without a CLI name");
}

// ----------------------------------------------------------------- spans --
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  bool extra = false;  ///< work the untraced request does not time
};

/// In-memory span recorder. Spans nest on the one benchmark thread. A
/// request's root span is named "op" and covers the same work the untraced
/// request times; output checks run outside it. Any other span without a
/// parent is set-up work or an extra measurement taken after the request.
class Tracer {
 public:
  bool on = false;
  std::uint64_t op = 0;

  int begin(std::string name, bool extra = false) {
    if (!on) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ms(), 0.0, cur_, op, extra});
    cur_ = idx;
    return idx;
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ms = now_ms();
    cur_ = spans_[static_cast<std::size_t>(idx)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int cur_ = -1;
};

class SpanGuard {
 public:
  SpanGuard(Tracer& t, std::string name, bool extra = false)
      : t_(t), idx_(t.begin(std::move(name), extra)) {}
  ~SpanGuard() { t_.end(idx_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ----------------------------------------------------------- host probe --
/// The probe's time on the reference host (4 cores at 2.0 GHz, quiet).
constexpr double kProbeRefMs = 15.0;

/// A fixed piece of reference work, timed between reps to measure how fast
/// the host runs at that moment: 3M random read-modify-writes over a 2 MB
/// table. Under contention from other tenants this host alternates between
/// fast periods and periods up to 1.9x slower, lasting seconds to minutes,
/// which a 20 s run cannot average out. The probe slows down with the
/// program (it tracked a headline request to within ~10% across the two
/// regimes), and it shares no code with it, so a change to the program
/// never moves it. Host-time metrics are scaled to the reference host by
/// the probe's slowdown.
class HostProbe {
 public:
  HostProbe() : table_(std::size_t{1} << 18) { run_ms(); }

  double run_ms() {
    const double t0 = now_ms();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const std::size_t mask = table_.size() - 1;
    for (int i = 0; i < 3'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& v = table_[x & mask];
      sum_ += v;
      v = sum_ ^ x;
    }
    return now_ms() - t0;
  }

  /// Host slowdown against the reference host, from the probes taken just
  /// before and just after a piece of work.
  static double slowdown(double before_ms, double after_ms) {
    return (before_ms + after_ms) / 2 / kProbeRefMs;
  }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t sum_ = 0;
};

// ------------------------------------------------------------- goldens ---
/// Golden digests, one per line: "<table> <key> <16 hex digits>".
class Goldens {
 public:
  void load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read golden file " + path);
    std::string table, key, hex;
    while (in >> table >> key >> hex)
      map_[table + " " + key] = std::stoull(hex, nullptr, 16);
  }
  std::optional<std::uint64_t> get(const std::string& table,
                                   const std::string& key) const {
    const auto it = map_.find(table + " " + key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::string, std::uint64_t> map_;
};

std::string suite_key(std::uint64_t tseed, AppId app) {
  return std::to_string(tseed) + "/" + app_name(app);
}

std::uint64_t digest_results(const std::vector<SimResult>& rs) {
  ContentHasher h;
  for (const SimResult& r : rs) h.mix(result_to_record_json(r));
  return h.digest();
}

// --------------------------------------------------------- accumulation --
struct OpTally {
  std::uint64_t records = 0;   ///< trace records x designs covered
  std::uint64_t points = 0;    ///< (design x trace) result cells
  std::uint64_t sessions = 0;  ///< app traces or sessions evaluated
};

struct PaperGap {
  double sp_energy = 0.0, sp_time = 0.0, dp_energy = 0.0, dp_time = 0.0;
};

/// Suite-geomean normalized cache energy and time of SP-MRSTT and DP-STT,
/// from per-app headline results (index = headline_schemes() order).
PaperGap paper_gap_from(
    const std::vector<std::vector<SimResult>>& per_app_headline) {
  const std::vector<SchemeKind> kinds = headline_schemes();
  auto geo = [&](SchemeKind k, bool energy) {
    const std::size_t s = static_cast<std::size_t>(
        std::find(kinds.begin(), kinds.end(), k) - kinds.begin());
    std::vector<double> v;
    for (const std::vector<SimResult>& app : per_app_headline) {
      const SimResult& b = app[0];
      const SimResult& r = app[s];
      v.push_back(energy ? r.l2_energy.cache_nj() / b.l2_energy.cache_nj()
                         : static_cast<double>(r.cycles) /
                               static_cast<double>(b.cycles));
    }
    return geomean(v);
  };
  PaperGap g;
  g.sp_energy = std::abs(geo(SchemeKind::StaticPartMrstt, true) -
                         kPaperSpEnergy);
  g.sp_time = std::abs(geo(SchemeKind::StaticPartMrstt, false) -
                       kPaperSpTime);
  g.dp_energy = std::abs(geo(SchemeKind::DynamicStt, true) - kPaperDpEnergy);
  g.dp_time = std::abs(geo(SchemeKind::DynamicStt, false) - kPaperDpTime);
  return g;
}

/// Per-layer counters and ratios gathered during the traced phase.
struct LayerCounts {
  std::map<std::string, double> values;
  void set(const std::string& k, double v) { values[k] = v; }
  void add(const std::string& k, double v) { values[k] += v; }
  void max(const std::string& k, double v) {
    values[k] = std::max(values[k], v);
  }
};

// ------------------------------------------------------------ workloads --
/// One benchmark workload: a closed loop of requests from one client.
class Workload {
 public:
  Workload(std::uint64_t seed, const Goldens& goldens)
      : slot_(pool_slot(seed)), goldens_(goldens) {}
  virtual ~Workload() = default;

  /// One set-up repetition (the driver repeats it and times each):
  /// generates the suite traces and wraps each in its own runner.
  virtual void setup(Tracer& t) {
    suite_.clear();
    for (std::uint64_t w = 0; w < kSuiteSeeds; ++w) {
      for (AppId a : apps_) {
        const std::uint64_t tseed = pool_seed(slot_ + w);
        std::vector<Trace> one;
        {
          SpanGuard s(t, "workload.generate_ms");
          one.push_back(generate_app_trace(a, kSuiteRecords, tseed));
        }
        suite_.push_back(
            {tseed, a, std::make_unique<ExperimentRunner>(std::move(one))});
      }
    }
  }
  /// Requests in one complete repetition of the workload's mix.
  virtual std::size_t ops_per_rep() const = 0;
  /// Distinct requests: request i repeats request i mod distinct_ops().
  /// 0 for the service, whose requests change what later requests see (so
  /// no request repeats, and a traced replay continues the sequence).
  virtual std::size_t distinct_ops() const = 0;
  /// Requests a timed phase makes at least, whatever its time budget.
  virtual std::size_t min_ops() const { return distinct_ops(); }
  /// Requests a run may make at most.
  virtual std::size_t max_ops() const { return SIZE_MAX; }
  /// Runs request `i`. Returns the latency of the work the untraced request
  /// times (checks excluded). `traced` selects the decomposed path whose
  /// layer calls are wrapped in spans under an "op" root. Sets `ok` false on
  /// a golden mismatch.
  virtual double op(std::size_t i, bool traced, Tracer& t, OpTally& tally,
                    bool& ok) = 0;
  /// Extra measurements taken once the traced phase has ended.
  virtual void after_traced(Tracer&) {}
  /// Model-vs-abstract accuracy of the E9 grid over the suite traces: an
  /// untimed run_headline per trace on the batched engine (byte-identical
  /// to the per-point path, and checked against the same goldens), spread
  /// over kAccuracyJobs threads.
  PaperGap accuracy(bool& ok) {
    const SweepExecutor ex(kAccuracyJobs);
    std::vector<std::vector<SimResult>> per_trace =
        ex.map(suite_.size(), [&](std::size_t i) {
          suite_[i].runner->sweep_batch = kSchemeCount;
          return first_workload(suite_[i].runner->run_headline());
        });
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      ok = check("suite", suite_key(suite_[i].tseed, suite_[i].app),
                 digest_results(per_trace[i])) && ok;
    }
    return paper_gap_from(per_trace);
  }
  /// Golden entries for every pool slot, printed by --regen-golden.
  virtual void regen(std::FILE* out) = 0;

  LayerCounts counts;

 protected:
  /// One suite trace: (trace seed, app) and a runner over just that trace.
  struct SuiteCell {
    std::uint64_t tseed;
    AppId app;
    std::unique_ptr<ExperimentRunner> runner;
  };

  static std::vector<SimResult> first_workload(
      const std::vector<SchemeSuiteResult>& res) {
    std::vector<SimResult> out;
    for (const SchemeSuiteResult& s : res) out.push_back(s.per_workload[0]);
    return out;
  }

  bool check(const std::string& table, const std::string& key,
             std::uint64_t digest) const {
    const std::optional<std::uint64_t> want = goldens_.get(table, key);
    if (want && *want == digest) return true;
    std::fprintf(stderr, "perfbench: %s %s digest %s, golden %s\n",
                 table.c_str(), key.c_str(), hex64(digest).c_str(),
                 want ? hex64(*want).c_str() : "missing");
    return false;
  }

  /// Counts L2 demand accesses and trace records per app ("demand.<app>",
  /// "records.<app>"), the inputs of sim.demand_per_record.
  void note_demand(AppId app, const DemandStream& ds) {
    counts.add(std::string("demand.") + app_name(app),
               static_cast<double>(ds.size()));
    counts.add(std::string("records.") + app_name(app),
               static_cast<double>(ds.total_records));
  }

  /// Serializes each result, one extra span per call.
  static std::vector<std::string> serialize(const std::vector<SimResult>& rs,
                                            Tracer& t) {
    std::vector<std::string> payloads;
    for (const SimResult& r : rs) {
      SpanGuard s(t, "exp.serialize_us", /*extra=*/true);
      payloads.push_back(result_to_record_json(r));
    }
    return payloads;
  }
  static std::uint64_t digest_payloads(const std::vector<std::string>& ps) {
    ContentHasher h;
    for (const std::string& p : ps) h.mix(p);
    return h.digest();
  }

  const std::uint64_t slot_;
  const Goldens& goldens_;
  const std::vector<AppId> apps_ = interactive_apps();
  std::vector<SuiteCell> suite_;  ///< kSuiteSeeds x apps, seed-major
  /// The requests of headline and design_sweep: the first kRequestSeeds.
  const std::size_t request_traces_ = kRequestSeeds * apps_.size();
};

// headline: the E9 grid, one request per suite trace (run_headline on the
// per-point path); a rep is one trace seed's eight apps.
class HeadlineWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::size_t ops_per_rep() const override { return apps_.size(); }
  std::size_t distinct_ops() const override { return request_traces_; }

  double op(std::size_t i, bool traced, Tracer& t, OpTally& tally,
            bool& ok) override {
    const SuiteCell& c = suite_[i % request_traces_];
    const ExperimentRunner& runner = *c.runner;
    const Trace& trace = runner.trace(0);
    std::vector<SimResult> results;
    double ms = 0.0;
    std::uint64_t digest = 0;
    if (!traced) {
      const double t0 = now_ms();
      const std::vector<SchemeSuiteResult> res = runner.run_headline();
      ms = now_ms() - t0;
      results = first_workload(res);
      digest = digest_results(results);
    } else {
      std::vector<std::string> payloads;
      const double t0 = now_ms();
      {
        SpanGuard root(t, "op");
        for (SchemeKind k : headline_schemes()) {
          SpanGuard s(t, "sim.simulate_ms." + cli_scheme_name(k));
          SimResult r = simulate(trace, build_scheme(k), runner.sim_options);
          validate_sim_result_finite(r);
          results.push_back(std::move(r));
        }
        {
          SpanGuard s(t, "sim.front_end_ms", /*extra=*/true);
          const DemandStream ds =
              build_demand_stream(trace, runner.sim_options);
          note_demand(c.app, ds);
        }
        payloads = serialize(results, t);
      }
      ms = now_ms() - t0;
      digest = digest_payloads(payloads);
    }
    ok = check("suite", suite_key(c.tseed, c.app), digest);
    tally.records += trace.size() * results.size();
    tally.points += results.size();
    tally.sessions += 1;
    return ms;
  }

  void regen(std::FILE* out) override {
    for (std::uint64_t s = 0; s < kSeedPool; ++s) {
      for (AppId a : apps_) {
        ExperimentRunner runner({a}, kSuiteRecords, pool_seed(s));
        std::fprintf(out, "suite %s %s\n",
                     suite_key(pool_seed(s), a).c_str(),
                     hex64(digest_results(first_workload(
                               runner.run_headline())))
                         .c_str());
      }
    }
  }
};

// design_sweep grid: the shared baseline, the seven E3 SP SRAM sizings and
// the E6 (user, kernel) retention pairings except (HI, HI), which E6 shows
// only wastes write energy -- 16 designs, one batch of lanes.
struct SpSizing {
  std::uint64_t user_kb;
  std::uint32_t user_assoc;
  std::uint64_t kernel_kb;
  std::uint32_t kernel_assoc;
};
struct SweepDesign {
  enum class Kind { Baseline, SpSram, SpMrstt };
  std::string name;
  Kind kind;
  SpSizing sizing;      ///< segment geometry (the default SP one for MRSTT)
  SchemeParams params;  ///< retention pairing (SpMrstt)
};

const std::vector<SweepDesign>& sweep_designs() {
  static const std::vector<SweepDesign> grid = [] {
    const SchemeParams def;
    const SpSizing def_sizing{def.sp_user_bytes >> 10, def.sp_user_assoc,
                              def.sp_kernel_bytes >> 10, def.sp_kernel_assoc};
    std::vector<SweepDesign> g;
    g.push_back({"base", SweepDesign::Kind::Baseline, def_sizing, def});
    const SpSizing e3[] = {{256, 8, 128, 8},  {512, 8, 128, 8},
                           {512, 8, 256, 8},  {768, 12, 256, 8},
                           {1024, 8, 256, 8}, {1024, 8, 512, 8},
                           {1536, 12, 512, 8}};
    for (const SpSizing& s : e3) {
      g.push_back({"sp-" + std::to_string(s.user_kb) + "k-" +
                       std::to_string(s.kernel_kb) + "k",
                   SweepDesign::Kind::SpSram, s, def});
    }
    const std::pair<RetentionClass, const char*> cls[] = {
        {RetentionClass::Lo, "lo"},
        {RetentionClass::Mid, "mid"},
        {RetentionClass::Hi, "hi"}};
    for (const auto& [u, un] : cls) {
      for (const auto& [k, kn] : cls) {
        if (u == RetentionClass::Hi && k == RetentionClass::Hi) continue;
        SchemeParams p;
        p.mrstt_user = u;
        p.mrstt_kernel = k;
        g.push_back({std::string("mrstt-") + un + "-" + kn,
                     SweepDesign::Kind::SpMrstt, def_sizing, p});
      }
    }
    return g;
  }();
  return grid;
}

// design_sweep: the 16-design grid per app on the batched engine.
class DesignSweepWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup(Tracer& t) override {
    Workload::setup(t);
    for (SuiteCell& c : suite_)
      c.runner->sweep_batch = static_cast<unsigned>(sweep_designs().size());
  }
  std::size_t ops_per_rep() const override { return apps_.size(); }
  std::size_t distinct_ops() const override { return request_traces_; }

  double op(std::size_t i, bool traced, Tracer& t, OpTally& tally,
            bool& ok) override {
    const SuiteCell& c = suite_[i % request_traces_];
    const ExperimentRunner& runner = *c.runner;
    const Trace& trace = runner.trace(0);
    const std::vector<DesignSpec> specs = make_specs();
    std::vector<SimResult> results;
    double ms = 0.0;
    std::uint64_t digest = 0;
    if (!traced) {
      const double t0 = now_ms();
      const std::vector<SchemeSuiteResult> res = runner.run_designs(specs);
      ms = now_ms() - t0;
      results = first_workload(res);
      digest = digest_results(results);
    } else {
      const SimOptions& opts = runner.sim_options;
      std::vector<SimResult> single;  // each design replayed on its own
      std::vector<std::string> payloads;
      const double t0 = now_ms();
      {
        SpanGuard root(t, "op");
        std::optional<DemandStream> ds;
        {
          SpanGuard s(t, "sim.front_end_ms");
          ds.emplace(build_demand_stream(trace, opts));
          note_demand(c.app, *ds);
        }
        {
          SpanGuard s(t, "sim.replay_ms");
          results = replay(*ds, specs, opts);
        }
        for (std::size_t d = 0; d < specs.size(); ++d) {
          SpanGuard s(t, "sim.replay_ms." + sweep_designs()[d].name,
                      /*extra=*/true);
          single.push_back(std::move(replay(*ds, {specs[d]}, opts)[0]));
        }
        {
          SpanGuard s(t, "cache.shadow_ms", /*extra=*/true);
          const std::vector<double> est = shadow_estimates(*ds);
          for (std::size_t d = 0; d < results.size(); ++d) {
            if (sweep_designs()[d].kind == SweepDesign::Kind::SpMrstt) continue;
            counts.max("cache.shadow_max_abs_err",
                       std::abs(est[d] - results[d].l2.miss_rate()));
          }
        }
        payloads = serialize(results, t);
      }
      ms = now_ms() - t0;
      for (std::size_t d = 0; d < specs.size(); ++d) {
        if (result_to_record_json(single[d]) != payloads[d]) {
          std::fprintf(stderr, "perfbench: single-lane replay of %s differs\n",
                       sweep_designs()[d].name.c_str());
          ok = false;
        }
      }
      digest = digest_payloads(payloads);
    }
    const bool lanes_ok = ok;
    ok = check("sweep", suite_key(c.tseed, c.app), digest) && lanes_ok;
    tally.records += trace.size() * results.size();
    tally.points += results.size();
    tally.sessions += 1;
    return ms;
  }

  void regen(std::FILE* out) override {
    const std::vector<DesignSpec> specs = make_specs();
    for (std::uint64_t s = 0; s < kSeedPool; ++s) {
      for (AppId a : apps_) {
        ExperimentRunner runner({a}, kSuiteRecords, pool_seed(s));
        runner.sweep_batch = static_cast<unsigned>(specs.size());
        std::fprintf(out, "sweep %s %s\n",
                     suite_key(pool_seed(s), a).c_str(),
                     hex64(digest_results(first_workload(
                               runner.run_designs(specs))))
                         .c_str());
      }
    }
  }

 private:
  /// Baseline first, then the E3 sizings (hashes as bench_e3), then the E6
  /// pairings (scheme_design, as bench_e6).
  std::vector<DesignSpec> make_specs() const {
    std::vector<DesignSpec> specs;
    for (const SweepDesign& d : sweep_designs()) {
      if (d.kind == SweepDesign::Kind::Baseline) {
        specs.push_back(scheme_design(SchemeKind::BaselineSram));
      } else if (d.kind == SweepDesign::Kind::SpSram) {
        const SpSizing s = d.sizing;
        DesignSpec spec;
        spec.name = "sp";
        spec.build = [s] {
          StaticPartitionConfig pc;
          pc.user = sram_segment(s.user_kb << 10, s.user_assoc);
          pc.kernel = sram_segment(s.kernel_kb << 10, s.kernel_assoc);
          return std::make_unique<StaticPartitionedL2>(pc);
        };
        spec.design_hash = ContentHasher()
                               .mix(std::string("e3-sp-sram"))
                               .mix(s.user_kb << 10)
                               .mix(std::uint64_t{s.user_assoc})
                               .mix(s.kernel_kb << 10)
                               .mix(std::uint64_t{s.kernel_assoc})
                               .digest();
        specs.push_back(std::move(spec));
      } else {
        specs.push_back(scheme_design(SchemeKind::StaticPartMrstt, d.params));
      }
    }
    return specs;
  }

  /// The batched engine's replay step, called directly.
  static std::vector<SimResult> replay(const DemandStream& ds,
                                       const std::vector<DesignSpec>& specs,
                                       const SimOptions& opts) {
    std::vector<std::unique_ptr<L2Interface>> designs;
    std::vector<L2Interface*> lanes;
    for (const DesignSpec& s : specs) {
      designs.push_back(s.build());
      lanes.push_back(designs.back().get());
    }
    std::vector<BatchLaneOutcome> out = simulate_batch_lanes(ds, lanes, opts);
    std::vector<SimResult> results;
    for (BatchLaneOutcome& o : out) {
      if (!o.ok()) std::rethrow_exception(o.error);
      validate_sim_result_finite(*o.result);
      results.push_back(std::move(*o.result));
    }
    return results;
  }

  /// Auxiliary-tag miss-rate estimate per design: the shared baseline from
  /// the whole demand stream; a partitioned design as the access-weighted
  /// mix of its user segment (user-mode demand) and kernel segment
  /// (kernel-mode demand). Auxiliary tags model no retention expiry, so the
  /// error is taken over the SRAM designs only.
  std::vector<double> shadow_estimates(const DemandStream& ds) const {
    DemandStream user, kernel;
    user.total_records = kernel.total_records = ds.total_records;
    for (std::size_t e = 0; e < ds.size(); ++e) {
      DemandStream& to =
          (ds.flags[e] & DemandStream::kKernelMode) ? kernel : user;
      to.record.push_back(ds.record[e]);
      to.line.push_back(ds.line[e]);
      to.flags.push_back(ds.flags[e]);
      to.wb_line.push_back(ds.wb_line[e]);
    }
    auto geom = [](std::uint64_t kb, std::uint32_t assoc) {
      return ShadowGeometry{
          static_cast<std::uint32_t>((kb << 10) / (kLineSize * assoc)),
          assoc};
    };
    const SchemeParams base;
    std::vector<ShadowGeometry> ug, kg;
    for (const SweepDesign& d : sweep_designs()) {
      ug.push_back(geom(d.sizing.user_kb, d.sizing.user_assoc));
      kg.push_back(geom(d.sizing.kernel_kb, d.sizing.kernel_assoc));
    }
    ShadowConfigBatch whole({geom(base.baseline_bytes >> 10,
                                  base.baseline_assoc)},
                            /*sample_shift=*/2);
    ShadowConfigBatch us(ug, 2), ks(kg, 2);
    const double whole_est = estimate_demand_miss_rates(ds, whole)[0];
    const std::vector<double> ue = estimate_demand_miss_rates(user, us);
    const std::vector<double> ke = estimate_demand_miss_rates(kernel, ks);
    const double nu = static_cast<double>(user.size());
    const double nk = static_cast<double>(kernel.size());
    std::vector<double> est;
    for (std::size_t d = 0; d < sweep_designs().size(); ++d) {
      est.push_back(sweep_designs()[d].kind == SweepDesign::Kind::Baseline
                        ? whole_est
                        : (ue[d] * nu + ke[d] * nk) / (nu + nk));
    }
    return est;
  }
};

// fleet: E22 population sweep requests, DP-STT, streamed sessions.
class FleetWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::size_t ops_per_rep() const override { return 1; }
  std::size_t distinct_ops() const override { return kFleetSeeds; }

  double op(std::size_t i, bool traced, Tracer& t, OpTally& tally,
            bool& ok) override {
    const FleetConfig cfg = config(pool_seed(slot_ + i % kFleetSeeds));
    FleetResult fr;
    double ms = 0.0;
    if (!traced) {
      const double t0 = now_ms();
      fr = run_fleet(cfg);
      ms = now_ms() - t0;
    } else {
      // run_fleet's shard plan, folded in the same order.
      const double t0 = now_ms();
      SpanGuard root(t, "op");
      fr.shards = fleet_shard_count(cfg.sessions);
      for (std::size_t s = 0; s < fr.shards; ++s) {
        FleetAccumulator acc;
        const std::uint64_t lo = cfg.sessions * s / fr.shards;
        const std::uint64_t hi = cfg.sessions * (s + 1) / fr.shards;
        for (std::uint64_t j = lo; j < hi; ++j) {
          std::optional<Trace> session;
          {
            SpanGuard sp(t, "workload.scenario_ms");
            ScenarioStream stream(
                sample_session(cfg.mix, sweep_point_seed(cfg.seed, j)));
            session.emplace(materialize(stream));
          }
          SpanGuard sp(t, "sim.simulate_ms");
          MaterializedTraceStream replay(*session);
          const auto l2 = build_scheme(cfg.scheme, cfg.params);
          const SimResult r = simulate(replay, *l2, cfg.sim);
          validate_sim_result_finite(r);
          acc.add_session(r);
        }
        fr.acc.merge(acc);
      }
      ms = now_ms() - t0;
    }
    ok = check("fleet", std::to_string(cfg.seed), digest(fr));
    tally.records += fr.acc.records;
    tally.points += fr.acc.sessions;
    tally.sessions += fr.acc.sessions;
    return ms;
  }

  void regen(std::FILE* out) override {
    for (std::uint64_t s = 0; s < kSeedPool; ++s) {
      const FleetConfig cfg = config(pool_seed(s));
      std::fprintf(out, "fleet %llu %s\n",
                   static_cast<unsigned long long>(cfg.seed),
                   hex64(digest(run_fleet(cfg))).c_str());
    }
  }

 private:
  static FleetConfig config(std::uint64_t seed) {
    FleetConfig cfg;
    cfg.mix = PopulationModel::default_mix(kFleetMeanAccesses);
    cfg.sessions = kFleetSessions;
    cfg.seed = seed;
    cfg.scheme = SchemeKind::DynamicStt;
    cfg.jobs = 1;
    return cfg;
  }
  /// Sessions, records and the sketch p50/p95/p99 summary, as the service
  /// publishes them.
  static std::uint64_t digest(const FleetResult& fr) {
    return ContentHasher()
        .mix(fleet_response_line("", SchemeKind::DynamicStt, fr))
        .digest();
  }
};

// service: one closed-loop client against MobcacheDaemon + result store.
class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, const Goldens& g, fs::path dir)
      : Workload(seed, g), dir_(std::move(dir)), rng_(seed) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Repeats must find their trace cached: room for the repeat window.
    // The cache charges vector capacity, which may be up to twice the size.
    // This replaces the daemon's default budget, which would keep every new
    // trace and let peak RSS grow with the number of requests a run makes.
    TraceCache::instance().set_capacity_bytes(
        2 * (kServiceRepeatWindow + 4) * kSuiteRecords * sizeof(Access));
  }
  ~ServiceWorkload() override {
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void setup(Tracer& t) override {
    Workload::setup(t);
    daemon_.reset();
    ServiceConfig cfg;
    cfg.dir = (dir_ / "svc").string();
    cfg.store_dir = store_dir();
    cfg.jobs = 1;
    daemon_ = std::make_unique<MobcacheDaemon>(cfg);
  }
  std::size_t ops_per_rep() const override { return kServiceBlock; }
  std::size_t distinct_ops() const override { return 0; }
  std::size_t min_ops() const override { return kServiceMinRequests; }
  std::size_t max_ops() const override { return kServiceMaxRequests; }

  double op(std::size_t i, bool traced, Tracer& t, OpTally& tally,
            bool& ok) override {
    // Every fourth request is new; the rest repeat a recent new one.
    std::uint64_t key;
    const bool cold = i % 4 == 0;
    if (cold) {
      key = (slot_ * apps_.size() + i / 4) % (kSeedPool * apps_.size());
      recent_.push_back(key);
      if (recent_.size() > kServiceRepeatWindow)
        recent_.erase(recent_.begin());
    } else {
      key = recent_[rng_.below(recent_.size())];
    }
    const AppId app = apps_[key % apps_.size()];
    const std::uint64_t tseed = pool_seed(key / apps_.size());
    const std::string name = "req-" + std::to_string(i) + ".jsonl";
    const std::string line =
        std::string("{\"id\":\"r") + std::to_string(i) +
        "\",\"kind\":\"sim\",\"apps\":\"" + app_name(app) +
        "\",\"scheme\":\"all\",\"records\":" + std::to_string(kSuiteRecords) +
        ",\"seed\":" + std::to_string(tseed) + "}\n";

    const TraceCache::Stats tc0 = TraceCache::instance().stats();
    const ResultStoreStats st0 = daemon_->store()->stats();
    std::string body;
    const double t0 = now_ms();
    {
      SpanGuard root(t, "op");
      {
        SpanGuard s(t, "service.submit_ms");
        atomic_publish((fs::path(daemon_->inbox_dir()) / name).string(), line,
                       "c" + std::to_string(i));
      }
      {
        SpanGuard s(t, cold ? "service.scan_ms.cold" : "service.scan_ms.warm");
        if (daemon_->scan_once() != 1)
          throw std::runtime_error("daemon did not serve " + name);
      }
      const fs::path resp = fs::path(daemon_->outbox_dir()) / name;
      std::ifstream in(resp, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      body = ss.str();
      in.close();
      fs::remove(resp);
    }
    const double ms = now_ms() - t0;

    if (traced) {
      const TraceCache::Stats tc1 = TraceCache::instance().stats();
      const ResultStoreStats st1 = daemon_->store()->stats();
      counts.add("trace.cache_hits", static_cast<double>(tc1.hits - tc0.hits));
      counts.add("trace.cache_misses",
                 static_cast<double>(tc1.misses - tc0.misses));
      counts.add("exp.store_hits", static_cast<double>(st1.hits - st0.hits));
      counts.add("exp.store_misses",
                 static_cast<double>(st1.misses - st0.misses));
      counts.add("exp.store_stores",
                 static_cast<double>(st1.stores - st0.stores));
      response_bytes_.push_back(static_cast<double>(body.size()));
      counts.set("service.response_bytes", median(response_bytes_));
      // The daemon fingerprints the request trace on every request; time
      // the same call on the cached trace.
      const std::shared_ptr<const Trace> tr =
          cached_app_trace(app, kSuiteRecords, tseed);
      SpanGuard s(t, "trace.hash_ms", /*extra=*/true);
      hash_trace(*tr);
    }

    // Payloads with ids stripped, in response order.
    ContentHasher h;
    std::size_t lines = 0;
    std::istringstream in(body);
    for (std::string l; std::getline(in, l);) {
      const std::optional<std::string> payload = response_result_payload(l);
      if (!payload) {
        std::fprintf(stderr, "perfbench: service error line: %s\n",
                     l.c_str());
        ok = false;
        return ms;
      }
      if (traced) {
        const std::optional<SimResult> r = result_from_record_json(*payload);
        std::string again;
        {
          SpanGuard s(t, "exp.serialize_us", /*extra=*/true);
          again = r ? result_to_record_json(*r) : std::string();
        }
        if (again != *payload) ok = false;
      }
      h.mix(*payload);
      ++lines;
    }
    ok = ok && lines == headline_schemes().size() &&
         check("suite", suite_key(tseed, app), h.digest());
    tally.records += kSuiteRecords * lines;
    tally.points += lines;
    tally.sessions += 1;
    return ms;
  }

  /// Reopens the store this run has filled, as a restarted daemon would.
  void after_traced(Tracer& t) override {
    for (int r = 0; r < kStoreReopens; ++r) {
      SpanGuard s(t, "exp.store_open_ms", /*extra=*/true);
      ResultStore opened(store_dir());
    }
  }

  void regen(std::FILE*) override {}  // shares the headline "suite" table

 private:
  std::string store_dir() const { return (dir_ / "store").string(); }

  fs::path dir_;
  Rng rng_;
  std::unique_ptr<MobcacheDaemon> daemon_;
  std::vector<std::uint64_t> recent_;
  std::vector<double> response_bytes_;
};

// --------------------------------------------------------------- driver --
struct Args {
  std::string workload;
  std::uint64_t seed = kCanonicalSeed;
  double seconds = 10.0;
  bool trace = false;
  bool regen = false;
  std::string golden = "perfbench/golden.txt";
  std::string work_dir = ".bench_build";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "headline|design_sweep|fleet|service --seed N --seconds S "
               "--trace 0|1 [--golden FILE] [--work-dir DIR] "
               "[--regen-golden]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--golden") a.golden = val();
    else if (k == "--work-dir") a.work_dir = val();
    else if (k == "--regen-golden") a.regen = true;
    else usage("unknown argument " + k);
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, const Goldens& g) {
  if (a.workload == "headline")
    return std::make_unique<HeadlineWorkload>(a.seed, g);
  if (a.workload == "design_sweep")
    return std::make_unique<DesignSweepWorkload>(a.seed, g);
  if (a.workload == "fleet") return std::make_unique<FleetWorkload>(a.seed, g);
  if (a.workload == "service") {
    return std::make_unique<ServiceWorkload>(
        a.seed, g,
        fs::path(a.work_dir) /
            ("perfbench-service-" + std::to_string(::getpid())));
  }
  usage("unknown workload '" + a.workload + "'");
}

/// One timed phase: every request's latency and work, in request order.
struct Phase {
  struct Sample {
    std::size_t op;
    double ms;
    OpTally tally;
  };
  std::vector<Sample> samples;
  /// Host slowdown of each rep.
  std::vector<double> rep_slowdown;
  double busy_ms = 0.0;  ///< summed request latency
  std::uint64_t attempted = 0, failed = 0;
};

/// Runs whole reps from request `first_op` on until `seconds` have passed
/// and at least min_ops() requests have run, or, when `ops` is nonzero,
/// exactly `ops` requests. Stops at the first failed request and at
/// max_ops().
Phase run_phase(Workload& w, double seconds, std::size_t ops, bool traced,
                Tracer& t, std::size_t first_op, HostProbe& probe) {
  Phase ph;
  std::size_t next_op = first_op;
  const double start = now_ms();
  double probe_ms = probe.run_ms();
  do {
    for (std::size_t k = 0; k < w.ops_per_rep(); ++k) {
      const std::size_t i = next_op++;
      t.op = i;
      bool ok = true;
      Phase::Sample smp{i, 0.0, {}};
      try {
        smp.ms = w.op(i, traced, t, smp.tally, ok);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: request %zu failed: %s\n", i,
                     e.what());
        ok = false;
      }
      ++ph.attempted;
      if (!ok) ++ph.failed;
      ph.busy_ms += smp.ms;
      ph.samples.push_back(smp);
    }
    const double after = probe.run_ms();
    ph.rep_slowdown.push_back(HostProbe::slowdown(probe_ms, after));
    probe_ms = after;
  } while ((ops ? ph.attempted < ops
               : now_ms() - start < seconds * 1e3 ||
                     ph.attempted < w.min_ops()) &&
           next_op + w.ops_per_rep() <= w.max_ops() && ph.failed == 0);
  return ph;
}

/// Host-time metrics of an untraced phase, scaled to the reference host:
/// each rep's rates are multiplied, and its requests' latencies divided, by
/// the rep's host slowdown. Rates are medians over reps; latencies are
/// percentiles over all requests.
struct HostMetrics {
  double records_per_s = 0, points_per_s = 0, sessions_per_s = 0,
         requests_per_s = 0;
  std::vector<double> latency_ms;
};

HostMetrics host_metrics(const Phase& ph, std::size_t per_rep) {
  std::vector<double> v[4];
  HostMetrics m;
  for (std::size_t r = 0; r < ph.rep_slowdown.size(); ++r) {
    const double slow = ph.rep_slowdown[r];
    OpTally sum;
    double ms = 0.0;
    for (std::size_t k = r * per_rep; k < (r + 1) * per_rep; ++k) {
      const Phase::Sample& s = ph.samples[k];
      sum.records += s.tally.records;
      sum.points += s.tally.points;
      sum.sessions += s.tally.sessions;
      ms += s.ms;
      m.latency_ms.push_back(s.ms / slow);
    }
    const double sec = ms / 1e3 / slow;
    v[0].push_back(static_cast<double>(sum.records) / sec);
    v[1].push_back(static_cast<double>(sum.points) / sec);
    v[2].push_back(static_cast<double>(sum.sessions) / sec);
    v[3].push_back(static_cast<double>(per_rep) / sec);
  }
  m.records_per_s = median(v[0]);
  m.points_per_s = median(v[1]);
  m.sessions_per_s = median(v[2]);
  m.requests_per_s = median(v[3]);
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 double t_zero) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"self_us\":%.3f,\"parent\":%d,\"op\":%llu,"
                 "\"extra\":%s}\n",
                 i, s.name.c_str(), (s.start_ms - t_zero) * 1e3,
                 (s.end_ms - t_zero) * 1e3,
                 (s.end_ms - s.start_ms - child[i]) * 1e3, s.parent,
                 static_cast<unsigned long long>(s.op),
                 s.extra ? "true" : "false");
  }
  std::fclose(f);
}

int run(const Args& a) {
  Goldens goldens;
  if (!a.regen) goldens.load(a.golden);
  std::unique_ptr<Workload> w = make_workload(a, goldens);
  if (a.regen) {
    w->regen(stdout);
    return 0;
  }

  Tracer tracer;
  const double t_zero = now_ms();

  // Set-up times are scaled to the reference host like request times.
  HostProbe probe;
  std::vector<double> setup_s;
  double probe_ms = probe.run_ms();
  for (int r = 0; r < kSetupReps; ++r) {
    tracer.on = a.trace;
    const double t0 = now_ms();
    w->setup(tracer);
    const double s = (now_ms() - t0) / 1e3;
    const double after = probe.run_ms();
    setup_s.push_back(s / HostProbe::slowdown(probe_ms, after));
    probe_ms = after;
  }

  // A traced run first measures a third of the budget untraced, then
  // replays the same requests traced (the service, whose store remembers,
  // continues its request sequence instead). trace_overhead compares the
  // untraced requests' time with the traced "op" roots less their extra
  // spans: the same work, with output checks outside both.
  Tracer off;
  const double budget = a.trace ? a.seconds / 3 : a.seconds;
  const Phase plain = run_phase(*w, budget, 0, false, off, 0, probe);
  std::uint64_t attempted = plain.attempted, failed = plain.failed;

  std::vector<Metric> metrics;
  if (!a.trace) {
    // Read before the accuracy pass, whose worker threads are not part of
    // the workload.
    const double peak_rss_mb =
        static_cast<double>(peak_rss_bytes()) / (1 << 20);
    bool acc_ok = true;
    const PaperGap gap = w->accuracy(acc_ok);
    ++attempted;
    if (!acc_ok) ++failed;
    const HostMetrics hm = host_metrics(plain, w->ops_per_rep());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ops_ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
        {"records_per_s", hm.records_per_s, "1/s"},
        {"points_per_s", hm.points_per_s, "1/s"},
        {"sessions_per_s", hm.sessions_per_s, "1/s"},
        {"request_ms.p50", median(hm.latency_ms), "ms"},
        {"request_ms.p95", quantile(hm.latency_ms, 0.95), "ms"},
        {"requests_per_s", hm.requests_per_s, "1/s"},
        {"paper_gap.spmrstt.energy", gap.sp_energy, "abs"},
        {"paper_gap.spmrstt.time", gap.sp_time, "abs"},
        {"paper_gap.dpstt.energy", gap.dp_energy, "abs"},
        {"paper_gap.dpstt.time", gap.dp_time, "abs"},
    };
    std::fprintf(stderr,
                 "perfbench: %s seed %llu (trace seed %llu): %llu requests, "
                 "host slowdown %.3f (median over reps), caches start cold\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 static_cast<unsigned long long>(pool_seed(pool_slot(a.seed))),
                 static_cast<unsigned long long>(plain.attempted),
                 median(plain.rep_slowdown));
  } else {
    tracer.on = true;
    const std::size_t first_span = tracer.spans().size();
    const Phase traced =
        run_phase(*w, 0, plain.attempted, true, tracer,
                  w->distinct_ops() == 0 ? plain.attempted : 0, probe);
    w->after_traced(tracer);
    attempted += traced.attempted;
    failed += traced.failed;

    // Request time is the "op" roots less their extra children; the layer
    // spans directly under a root cover the attributed part of it.
    const std::vector<Span>& spans = tracer.spans();
    std::map<std::string, std::vector<double>> samples;
    double roots = 0.0, covered = 0.0, extra = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = s.end_ms - s.start_ms;
      samples[s.name].push_back(d);
      if (i < first_span) continue;
      if (s.parent < 0) {
        if (s.name == "op") roots += d;
        continue;
      }
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (p.parent >= 0 || p.name != "op") continue;
      (s.extra ? extra : covered) += d;
    }
    const double request_ms = roots - extra;
    std::vector<std::string> names = {
        "workload.generate_ms", "workload.scenario_ms", "trace.hash_ms",
        "sim.front_end_ms"};
    for (SchemeKind k : headline_schemes())
      names.push_back("sim.simulate_ms." + cli_scheme_name(k));
    names.push_back("sim.simulate_ms");
    names.push_back("sim.replay_ms");
    for (const SweepDesign& d : sweep_designs())
      names.push_back("sim.replay_ms." + d.name);
    for (const char* n :
         {"cache.shadow_ms", "exp.serialize_us", "exp.store_open_ms",
          "service.scan_ms.warm", "service.scan_ms.cold", "service.submit_ms"})
      names.push_back(n);

    auto timing = [&](const std::string& n) {
      const bool us = n.find("_us") != std::string::npos;
      std::vector<double> v = samples[n];
      for (double& x : v) x *= us ? 1e3 : 1.0;
      const std::string unit = us ? "us" : "ms";
      metrics.push_back({n + ".p50", quantile(v, 0.5), unit});
      metrics.push_back({n + ".tail", quantile(v, tail_quantile(v.size())),
                         unit});
    };
    auto count = [&](const std::string& n, const std::string& unit) {
      const auto it = w->counts.values.find(n);
      metrics.push_back(
          {n, it == w->counts.values.end() ? 0.0 : it->second, unit});
    };
    for (const std::string& n : names) timing(n);
    count("trace.cache_hits", "count");
    count("trace.cache_misses", "count");
    double demand = 0.0, records = 0.0;
    for (const auto& [k, v] : w->counts.values) {
      if (k.rfind("demand.", 0) != 0) continue;
      const double r = w->counts.values["records." + k.substr(7)];
      std::fprintf(stderr, "perfbench: sim.demand_per_record %s = %.6f\n",
                   k.substr(7).c_str(), v / r);
      demand += v;
      records += r;
    }
    metrics.push_back({"sim.demand_per_record",
                       records > 0 ? demand / records : 0.0, "ratio"});
    count("cache.shadow_max_abs_err", "abs");
    count("exp.store_hits", "count");
    count("exp.store_misses", "count");
    count("exp.store_stores", "count");
    count("service.response_bytes", "bytes");
    metrics.push_back({"bench.attributed_frac", covered / request_ms,
                       "ratio"});
    metrics.push_back(
        {"bench.host_slowdown", median(plain.rep_slowdown), "ratio"});
    // Each phase's time per request, scaled by its median host slowdown.
    const double plain_per_op = plain.busy_ms /
                                static_cast<double>(plain.attempted) /
                                median(plain.rep_slowdown);
    const double traced_per_op = request_ms /
                                 static_cast<double>(traced.attempted) /
                                 median(traced.rep_slowdown);
    metrics.push_back(
        {"bench.trace_overhead", traced_per_op / plain_per_op - 1.0, "ratio"});

    const std::string spans_path = (fs::path(a.work_dir) /
                                    ("perfbench-spans-" + a.workload +
                                     ".jsonl"))
                                       .string();
    write_spans(spans_path, spans, t_zero);
    std::fprintf(stderr,
                 "perfbench: traced %llu requests: %.1f ms of request time "
                 "(%.1f ms more in extra spans), spans in %s\n",
                 static_cast<unsigned long long>(traced.attempted), request_ms,
                 extra, spans_path.c_str());
  }

  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
