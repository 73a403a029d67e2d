#pragma once
/// \file batch.hpp
/// Single-pass multi-config sweep kernel: decode the trace and run the L1
/// front end ONCE, then drive N independent L2 designs ("lanes") from the
/// captured demand stream.
///
/// Why this is sound: with the default hierarchy (non-inclusive L2, no
/// prefetcher, no telemetry, no eviction observer) the L1 arrays never see
/// anything the L2 produced — the only L2→L1 channel is the inclusion
/// back-invalidation observer, and the replacement policies (common to every
/// lane) advance on their own internal tick, never on the cycle clock. The
/// L1 hit/miss sequence, victim choices, writeback lines and stat counters
/// are therefore *identical across all L2 configurations*, and a sweep that
/// re-simulates them per point is paying (points ×) for one shared
/// computation. build_demand_stream() runs that shared computation through
/// the real MemoryHierarchy (the same code the per-point path executes, so
/// L1 behaviour cannot drift), recording one compact record per L2 demand
/// access; simulate_batch() then replays the stream into each lane with a
/// per-lane reconstruction of the CpiModel clock:
///
///   now_i = Cycle(double(record_index) * base_cpi) + lane_stall_sum
///
/// which is bit-for-bit the value CpiModel::now() would have produced at
/// that access in a per-point run. The resulting SimResults are
/// byte-identical to simulate() — tests/test_batch.cpp pins this for every
/// scheme, and the ExperimentRunner keys them into the same result store
/// records (docs/SWEEP_ENGINE.md).
///
/// Sizes not worth a full lane can be *estimated* from the same stream via
/// the auxiliary-tag ShadowConfigBatch (cache/config_batch.hpp) —
/// estimate_demand_miss_rates() below is the seam.

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cache/config_batch.hpp"
#include "sim/simulator.hpp"

namespace mobcache {

/// The L2-visible residue of one trace + one L1 front end, in SoA layout:
/// one entry per L2 demand access (i.e. per L1 miss), plus everything the
/// shared pass fixes for every lane (L1 stats, L1 dynamic energy, timing
/// constants). Building it costs one full L1 simulation; replaying it costs
/// only the L2 work, which is what makes an N-lane sweep cheaper than N
/// full runs.
struct DemandStream {
  /// Demand-record flag bits (flags[e]).
  static constexpr std::uint8_t kKernelMode = 1u << 0;  ///< Mode::Kernel
  static constexpr std::uint8_t kWrite = 1u << 1;       ///< store miss (posted)
  static constexpr std::uint8_t kWriteback = 1u << 2;   ///< dirty L1 victim follows
  static constexpr std::uint8_t kWbKernel = 1u << 3;    ///< victim owner mode

  std::vector<std::uint64_t> record;  ///< trace-record index of the access
  std::vector<Addr> line;             ///< line-aligned demand address
  std::vector<std::uint8_t> flags;    ///< kKernelMode | kWrite | kWriteback...
  std::vector<Addr> wb_line;          ///< victim line when kWriteback (else 0)

  // Shared per-trace state, identical for every lane.
  std::string workload;
  std::uint64_t total_records = 0;  ///< trace length (== per-lane records)
  CacheStats l1i;
  CacheStats l1d;
  double l1_dynamic_nj = 0.0;  ///< L1 array energy, accumulated in trace order
  TechParams l1_tech;          ///< per-lane leakage is charged at the lane's end
  Cycle l1_hit_latency = 1;
  double base_cpi = 2.0;

  std::size_t size() const { return line.size(); }
};

/// True when `opts` is in the regime where the L1 front end is provably
/// lane-invariant: non-inclusive L2, prefetcher off, no telemetry session
/// and no eviction observer. Everything else must take the per-point path
/// (the ExperimentRunner falls back automatically).
bool batch_eligible(const SimOptions& opts);

/// Runs the shared L1 pass for `trace` under `opts.hierarchy`/`opts.timing`
/// and returns the captured demand stream. Polls `opts.cancel` (or the
/// global token) at kCancelPollStride records, like simulate().
/// Precondition: batch_eligible(opts).
DemandStream build_demand_stream(const Trace& trace, const SimOptions& opts);

class TraceStream;

/// Streaming front end: same shared L1 pass fed chunk by chunk from a
/// TraceStream, so the source trace never exists in memory (the captured
/// DemandStream still does — it is the compact L2-visible residue). The
/// captured stream is byte-identical to the Trace overload's
/// (tests/test_trace_stream.cpp); the stream is consumed.
DemandStream build_demand_stream(TraceStream& stream, const SimOptions& opts);

/// One lane's outcome: exactly one of result/error is set. Lane errors
/// (e.g. a design throwing mid-replay) are confined to their lane so a
/// keep-going sweep loses one point, not the batch; cancellation and
/// deadline expiry are whole-batch conditions and throw out of
/// simulate_batch_lanes itself.
struct BatchLaneOutcome {
  std::optional<SimResult> result;
  std::exception_ptr error;
  bool ok() const { return result.has_value(); }
};

/// Replays `stream` into every lane of `lanes` (non-owning; one fresh L2
/// design per lane) and returns per-lane SimResults byte-identical to what
/// simulate(trace, *lanes[i], opts) would have produced. The replay is
/// chunk-blocked: all lanes advance through one kCancelPollStride-sized
/// block of demand records before the next block starts, so supervision
/// (cancellation, and the per-point deadline reinterpreted per batch —
/// docs/SWEEP_ENGINE.md) is polled once per block like the per-point loop.
std::vector<BatchLaneOutcome> simulate_batch_lanes(
    const DemandStream& stream, const std::vector<L2Interface*>& lanes,
    const SimOptions& opts);

/// Convenience: build the stream and replay, rethrowing the lowest-indexed
/// lane error (fail-fast). Precondition: batch_eligible(opts).
std::vector<SimResult> simulate_batch(const Trace& trace,
                                      const std::vector<L2Interface*>& lanes,
                                      const SimOptions& opts = {});

/// Auxiliary-tag estimation seam (Mittal-style single-pass profiling): feeds
/// every L2 access of `stream` through `shadow` — each demand line and, when
/// flagged, its L1 writeback victim, in replay order — and returns, per
/// geometry lane, the estimated L2 miss rate at that lane's full
/// associativity. Estimates are *approximations* (LRU stacks, sampled sets —
/// the gated error bound is in docs/SWEEP_ENGINE.md), for triaging which
/// sizes deserve a real simulation lane.
std::vector<double> estimate_demand_miss_rates(const DemandStream& stream,
                                               ShadowConfigBatch& shadow);

}  // namespace mobcache
