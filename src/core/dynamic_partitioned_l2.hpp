#pragma once
/// \file dynamic_partitioned_l2.hpp
/// Dynamically partitioned L2 (paper technique 3): one physical array whose
/// ways are assigned per epoch to the user segment, the kernel segment, or
/// powered off entirely. Combined with short-retention STT-RAM this is the
/// paper's maximal-savings design (DP-STT, −85% cache energy).
///
/// Way plan: user ways grow from way 0 upward, kernel ways from the top
/// downward, the gap in the middle is power-gated. Growing one segment
/// therefore never flushes the other; only ways leaving a segment are
/// written back and invalidated.

#include <array>
#include <memory>
#include <vector>

#include "cache/bank_model.hpp"
#include "cache/config_batch.hpp"
#include "core/dynamic_controller.hpp"
#include "core/l2_interface.hpp"
#include "energy/refresh.hpp"
#include "energy/technology.hpp"
#include "fault/fault_injector.hpp"

namespace mobcache {

struct DynamicL2Config {
  CacheConfig cache;  ///< physical array (paper: 2 MB, 16-way)
  TechKind tech = TechKind::Sram;
  RetentionClass retention = RetentionClass::Lo;  ///< STT-RAM only
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  Cycle refresh_check_interval = 2'000'000;
  /// Epoch length in L2 demand accesses between repartition decisions.
  std::uint64_t epoch_accesses = 10'000;
  std::uint32_t monitor_sample_shift = 4;  ///< shadow tags sample 1/16 sets
  ControllerConfig controller;
  /// Fault injection + ECC + way-disable repair (disabled by default).
  /// Quarantined ways shrink the controller's way budget: allocations are
  /// re-clamped to the healthy mask instead of asserting.
  FaultConfig fault;
};

/// One repartition event, kept for the E8 allocation-trace figure.
struct AllocationSample {
  Cycle cycle = 0;
  std::uint32_t user_ways = 0;
  std::uint32_t kernel_ways = 0;
};

class DynamicPartitionedL2 final : public L2Interface {
 public:
  explicit DynamicPartitionedL2(const DynamicL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override;
  void writeback(Addr line, Mode owner, Cycle now) override;
  void prefetch(Addr line, Mode mode, Cycle now) override;
  void finalize(Cycle end) override;
  const EnergyBreakdown& energy() const override { return acct_.breakdown(); }
  CacheStats aggregate_stats() const override { return cache_.stats(); }
  std::uint64_t capacity_bytes() const override {
    return cache_.config().size_bytes;
  }
  double avg_enabled_bytes() const override;
  std::string describe() const override;
  void fill_sample(EpochSample& s) const override {
    s.user_ways = alloc_.user_ways;
    s.kernel_ways = alloc_.kernel_ways;
    s.enabled_bytes =
        enabled_fraction() * static_cast<double>(cache_.config().size_bytes);
  }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    cache_.add_eviction_observer(std::move(obs));
  }

  WayAllocation allocation() const { return controller_.current(); }
  const std::vector<AllocationSample>& allocation_history() const {
    return history_;
  }
  std::uint64_t reconfigurations() const { return history_.size(); }
  std::uint64_t reconfig_writebacks() const { return reconfig_writebacks_; }
  const SetAssocCache& array() const { return cache_; }
  /// Fault subsystem (null when DynamicL2Config::fault is disabled).
  const FaultInjector* fault_injector() const { return fault_.get(); }
  std::uint32_t quarantined_ways() const override {
    return fault_ == nullptr ? 0 : fault_->repair().quarantined_ways();
  }

 private:
  /// Per-mode way masks for an allocation. Fault-free this is the
  /// contiguous user-from-bottom / kernel-from-top plan; with quarantined
  /// ways the same counts are carved out of the healthy mask instead (the
  /// remap: allocations skip dead ways rather than shrinking around them).
  std::array<WayMask, kModeCount> masks_for(const WayAllocation& a) const {
    if (fault_ == nullptr) {
      return {way_range_mask(0, a.user_ways),
              way_range_mask(cache_.assoc() - a.kernel_ways, a.kernel_ways)};
    }
    const WayMask healthy = fault_->repair().healthy_mask();
    return {lowest_ways(healthy, a.user_ways),
            highest_ways(healthy, a.kernel_ways)};
  }
  WayMask mask_of(Mode m) const {
    return masks_for(alloc_)[static_cast<int>(m)];
  }
  double enabled_fraction() const;
  /// Shrinks an allocation so it fits the healthy-way budget (no-op when
  /// fault injection is off). The kernel segment keeps its last way longest:
  /// kernel misses are the costlier ones in the paper's workloads.
  WayAllocation clamp_to_healthy(WayAllocation a) const;
  /// Advances transient injection and drains pending way quarantines.
  void service_faults(Cycle now);

  /// Accumulates leakage for [last_change_, now) at the current allocation.
  void settle_leakage(Cycle now);
  void maybe_epoch(Cycle now);
  void apply_allocation(WayAllocation next, Cycle now);
  void rescale_active_tech();
  const TechParams& refresh_tech() const;
  L2Result do_access(Addr line, AccessType type, Mode mode, Cycle now,
                     bool demand, bool prefetch = false);

  DynamicL2Config cfg_;
  SetAssocCache cache_;
  std::unique_ptr<FaultInjector> fault_;
  TechParams tech_;  ///< full-array parameters (leakage reference)
  /// Per-mode dynamic energies scaled to that segment's enabled capacity —
  /// an access only probes its own segment's ways, so its cost matches a
  /// standalone array of that size (same law as the static design).
  std::array<TechParams, kModeCount> seg_tech_{};
  RefreshController refresher_;
  EnergyAccountant acct_;
  DynamicPartitionController controller_;
  WayAllocation alloc_;
  /// One-lane utility monitors, fed demand accesses only.
  ShadowConfigBatch user_monitor_;
  ShadowConfigBatch kernel_monitor_;

  std::uint64_t epoch_access_count_ = 0;
  std::uint64_t epoch_misses_[kModeCount] = {0, 0};
  std::uint64_t epoch_accesses_[kModeCount] = {0, 0};
  Cycle epoch_start_cycle_ = 0;

  std::uint64_t epoch_index_ = 0;
  EnergyBreakdown last_epoch_energy_;  ///< telemetry interval attribution

  Cycle last_change_ = 0;
  double enabled_byte_cycles_ = 0.0;
  Cycle final_cycle_ = 0;
  BankModel banks_;
  std::uint64_t reconfig_writebacks_ = 0;
  std::vector<AllocationSample> history_;
  bool finalized_ = false;
};

}  // namespace mobcache
