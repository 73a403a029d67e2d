#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "trace/trace_stream.hpp"

namespace mobcache {

namespace {

/// Stub L2 the shared L1 pass runs against: answers every demand access as a
/// zero-latency hit (so the prefetcher-training branch never fires and no
/// stall feeds back into the clock — irrelevant anyway, because L1 outcomes
/// are clock-invariant) while appending one DemandStream record per access.
/// A writeback always arrives inside the same MemoryHierarchy::access() call
/// as the demand access that displaced the victim, so it annotates the record
/// just pushed.
class RecorderL2 final : public L2Interface {
 public:
  explicit RecorderL2(DemandStream& s) : s_(s) {}

  /// Must be called before each MemoryHierarchy::access() so the record
  /// carries the trace index (for clock reconstruction) and the store flag
  /// (stores are posted — no stall on replay).
  void begin_record(std::uint64_t trace_index, bool is_write) {
    index_ = trace_index;
    write_ = is_write;
  }

  L2Result access(Addr line, AccessType /*type*/, Mode mode,
                  Cycle /*now*/) override {
    s_.record.push_back(index_);
    s_.line.push_back(line);
    std::uint8_t f = 0;
    if (mode == Mode::Kernel) f |= DemandStream::kKernelMode;
    if (write_) f |= DemandStream::kWrite;
    s_.flags.push_back(f);
    s_.wb_line.push_back(0);
    return {.hit = true, .latency = 0};
  }

  void writeback(Addr line, Mode owner, Cycle /*now*/) override {
    s_.flags.back() |= DemandStream::kWriteback;
    if (owner == Mode::Kernel) s_.flags.back() |= DemandStream::kWbKernel;
    s_.wb_line.back() = line;
  }

  void prefetch(Addr /*line*/, Mode /*mode*/, Cycle /*now*/) override {}
  void finalize(Cycle /*end*/) override {}
  const EnergyBreakdown& energy() const override { return energy_; }
  CacheStats aggregate_stats() const override { return {}; }
  std::uint64_t capacity_bytes() const override { return 0; }
  std::string describe() const override { return "l1-demand-recorder"; }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> /*obs*/) override {}

 private:
  DemandStream& s_;
  EnergyBreakdown energy_;
  std::uint64_t index_ = 0;
  bool write_ = false;
};

using SimClock = std::chrono::steady_clock;

/// Chunk-boundary supervision, identical in cadence and error context to the
/// simulate() loop (scheme context is omitted: the L1 pass and the replay
/// serve every lane at once).
struct Supervisor {
  Supervisor(const SimOptions& opts, const std::string& workload)
      : cancel(opts.cancel != nullptr ? *opts.cancel : global_cancel_token()),
        workload(workload),
        has_deadline(opts.point_deadline_ms != 0),
        deadline_ms(opts.point_deadline_ms),
        deadline(SimClock::now() +
                 std::chrono::milliseconds(opts.point_deadline_ms)) {}

  void poll() const {
    if (cancel.cancel_requested()) {
      try {
        cancel.check();
      } catch (SimError& e) {
        e.with_workload(workload);
        throw;
      }
    }
    if (has_deadline && SimClock::now() >= deadline) {
      DeadlineExceeded err("point exceeded deadline of " +
                           std::to_string(deadline_ms) + " ms");
      err.with_workload(workload);
      throw err;
    }
  }

  const CancelToken& cancel;
  const std::string& workload;
  bool has_deadline;
  std::uint64_t deadline_ms;
  SimClock::time_point deadline;
};

}  // namespace

bool batch_eligible(const SimOptions& opts) {
  // The L1 front end is lane-invariant only when nothing flows back from the
  // L2 (no inclusion back-invalidation) and no per-lane side channel
  // (prefetcher training, telemetry) is attached.
  return !opts.hierarchy.inclusive_l2 && !opts.hierarchy.prefetch.enabled &&
         opts.telemetry == nullptr;
}

namespace {

std::atomic<std::uint64_t> g_front_end_passes{0};

/// Shared L1 pass over any chunk provider. Supervision polls at chunk
/// boundaries — the exact positions of the pre-streaming loop when fed
/// kCancelPollStride-sized subspans, and a pure check in any case, so the
/// captured stream is identical however the records arrive.
template <typename NextChunk>
DemandStream build_demand_stream_chunked(const std::string& workload,
                                         NextChunk&& next_chunk,
                                         const SimOptions& opts) {
  g_front_end_passes.fetch_add(1, std::memory_order_relaxed);
  DemandStream s;
  s.workload = workload;
  s.l1_hit_latency = opts.hierarchy.l1_hit_latency;
  s.base_cpi = opts.timing.base_cpi;
  s.l1_tech = make_sram(opts.hierarchy.l1i.size_bytes +
                        opts.hierarchy.l1d.size_bytes);

  RecorderL2 recorder(s);
  MemoryHierarchy hier(opts.hierarchy, recorder);
  const Supervisor sup(opts, s.workload);

  // Same chunked shape as the simulate() demand loop. The clock passed down
  // is irrelevant to L1 outcomes (replacement state advances on an internal
  // tick; retention/fault hooks are L2-only), so the pass runs at now = 0 —
  // per-lane clocks are reconstructed at replay time.
  std::uint64_t index = 0;
  bool first = true;
  for (;;) {
    const std::span<const Access> chunk = next_chunk();
    if (chunk.empty()) break;
    if (!first) sup.poll();
    first = false;
    for (const Access& a : chunk) {
      recorder.begin_record(index++, a.is_write());
      hier.access(a, /*now=*/0);
    }
  }
  s.total_records = index;

  // Deliberately no hier.finalize(): finalize would fold L1 leakage (a
  // function of each lane's end cycle) into l1_energy_nj. The pure dynamic
  // part captured here is lane-invariant; leakage is charged per lane.
  s.l1i = hier.l1i_stats();
  s.l1d = hier.l1d_stats();
  s.l1_dynamic_nj = hier.l1_energy_nj();
  return s;
}

}  // namespace

std::uint64_t front_end_passes() {
  return g_front_end_passes.load(std::memory_order_relaxed);
}

DemandStream build_demand_stream(const Trace& trace, const SimOptions& opts) {
  const std::vector<Access>& accesses = trace.accesses();
  const std::size_t total = accesses.size();
  std::size_t i = 0;
  auto next_chunk = [&]() -> std::span<const Access> {
    if (i >= total) return {};
    const std::size_t end = std::min<std::size_t>(
        total, i + static_cast<std::size_t>(kCancelPollStride));
    const std::span<const Access> chunk(accesses.data() + i, end - i);
    i = end;
    return chunk;
  };
  return build_demand_stream_chunked(trace.name(), next_chunk, opts);
}

DemandStream build_demand_stream(TraceStream& stream, const SimOptions& opts) {
  return build_demand_stream_chunked(
      stream.name(), [&stream] { return stream.next_chunk(); }, opts);
}

std::vector<BatchLaneOutcome> simulate_batch_lanes(
    const DemandStream& stream, const std::vector<L2Interface*>& lanes,
    const SimOptions& opts) {
  const std::size_t n = lanes.size();
  std::vector<BatchLaneOutcome> out(n);

  // Captured before any replay, exactly where simulate() reads them.
  std::vector<std::string> schemes(n);
  std::vector<std::uint64_t> capacities(n);
  for (std::size_t l = 0; l < n; ++l) {
    schemes[l] = lanes[l]->describe();
    capacities[l] = lanes[l]->capacity_bytes();
  }

  std::vector<Cycle> stall_sum(n, 0);
  std::vector<Cycle> stall_hit(n, 0);
  std::vector<Cycle> stall_miss(n, 0);
  std::vector<char> dead(n, 0);

  const Supervisor sup(opts, stream.workload);
  const double base_cpi = stream.base_cpi;
  const Cycle l1_hit_latency = stream.l1_hit_latency;

  auto lane_failed = [&](std::size_t l) {
    out[l].error = std::current_exception();
    dead[l] = 1;
  };

  // Chunk-blocked, lane-major replay: every live lane advances through one
  // supervision-stride block of demand records before the next block starts.
  // Lane-major keeps each lane's tag arrays hot across the block; the block
  // boundary polls cancellation/deadline at the simulate() cadence. A lane
  // that throws is confined to its own outcome slot; cancellation and
  // deadline expiry abort the whole batch from the poll below.
  const std::size_t entries = stream.size();
  std::size_t begin = 0;
  while (begin < entries) {
    const std::size_t end = std::min<std::size_t>(
        entries, begin + static_cast<std::size_t>(kCancelPollStride));
    for (std::size_t l = 0; l < n; ++l) {
      if (dead[l]) continue;
      L2Interface* l2 = lanes[l];
      try {
        for (std::size_t e = begin; e < end; ++e) {
          const std::uint8_t f = stream.flags[e];
          // Bit-for-bit the CpiModel::now() a per-point run would pass to
          // this access: record[e] accesses retired, this lane's stalls.
          const Cycle now =
              static_cast<Cycle>(static_cast<double>(stream.record[e]) *
                                 base_cpi) +
              stall_sum[l];
          const L2Result r = l2->access(
              stream.line[e], AccessType::Read,
              (f & DemandStream::kKernelMode) != 0 ? Mode::Kernel : Mode::User,
              now);
          if ((f & DemandStream::kWriteback) != 0) {
            l2->writeback(stream.wb_line[e],
                          (f & DemandStream::kWbKernel) != 0 ? Mode::Kernel
                                                             : Mode::User,
                          now);
          }
          if ((f & DemandStream::kWrite) == 0) {
            const Cycle stall = l1_hit_latency + r.latency;
            (r.hit ? stall_hit[l] : stall_miss[l]) += stall;
            stall_sum[l] += stall;
          }
        }
      } catch (...) {
        lane_failed(l);
      }
    }
    begin = end;
    if (begin < entries) sup.poll();
  }

  for (std::size_t l = 0; l < n; ++l) {
    if (dead[l]) continue;
    L2Interface* l2 = lanes[l];
    try {
      const Cycle end_cycle =
          static_cast<Cycle>(static_cast<double>(stream.total_records) *
                             base_cpi) +
          stall_sum[l];
      l2->finalize(end_cycle);

      SimResult res;
      res.workload = stream.workload;
      res.scheme = schemes[l];
      res.l2_capacity_bytes = capacities[l];
      res.records = stream.total_records;
      res.cycles = end_cycle;
      res.cpi = stream.total_records == 0
                    ? 0.0
                    : static_cast<double>(end_cycle) /
                          static_cast<double>(stream.total_records);
      res.l1i = stream.l1i;
      res.l1d = stream.l1d;
      res.l2 = l2->aggregate_stats();
      res.l2_energy = l2->energy();
      res.l1_energy_nj =
          stream.l1_dynamic_nj + stream.l1_tech.leakage_nj(end_cycle);
      res.l2_avg_enabled_bytes = l2->avg_enabled_bytes();
      res.l2_quarantined_ways = l2->quarantined_ways();
      res.stall_l2_hit_cycles = stall_hit[l];
      res.stall_l2_miss_cycles = stall_miss[l];
      res.prefetches_issued = 0;  // batch_eligible ⇒ prefetcher disabled
      out[l].result = std::move(res);
    } catch (...) {
      lane_failed(l);
    }
  }
  return out;
}

std::vector<double> estimate_demand_miss_rates(const DemandStream& stream,
                                               ShadowConfigBatch& shadow) {
  // Replay order matches simulate_batch_lanes: the demand, then its L1
  // castout, which the simulated L2 also counts as an access.
  for (std::size_t e = 0; e < stream.size(); ++e) {
    shadow.observe(stream.line[e]);
    if ((stream.flags[e] & DemandStream::kWriteback) != 0) {
      shadow.observe(stream.wb_line[e]);
    }
  }
  std::vector<double> rates(shadow.lanes());
  for (std::size_t g = 0; g < shadow.lanes(); ++g) {
    rates[g] = shadow.estimated_miss_rate(g);
  }
  return rates;
}

}  // namespace mobcache
