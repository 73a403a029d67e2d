#pragma once
/// \file shared_l2.hpp
/// Conventional mode-oblivious L2: the paper's baseline (SRAM, any size) and
/// the unpartitioned-STT-RAM comparison point.

#include <memory>

#include "cache/bank_model.hpp"
#include "cache/bypass_predictor.hpp"
#include "core/l2_interface.hpp"
#include "energy/refresh.hpp"
#include "energy/technology.hpp"
#include "fault/fault_injector.hpp"

namespace mobcache {

struct SharedL2Config {
  CacheConfig cache;                     ///< geometry + replacement
  TechKind tech = TechKind::Sram;
  RetentionClass retention = RetentionClass::Hi;  ///< STT-RAM only
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  /// Maintenance cadence; clamped to t_ret/2 when retention is finite.
  Cycle refresh_check_interval = 2'000'000;
  /// Optional stream write-bypass (meaningful for STT-RAM: skips the
  /// expensive install for predicted-dead fills; experiment E18).
  BypassPredictorConfig bypass;
  /// Wear leveling: rotate the set mapping after this many array writes
  /// (0 = off). Production values are billions of writes (days apart);
  /// experiment E20 uses small values to demonstrate the flattening.
  std::uint64_t wear_rotate_writes = 0;
  /// Fault injection + ECC + way-disable repair. Disabled by default; a
  /// disabled config builds no injector and leaves every result bit-identical
  /// to a fault-free binary.
  FaultConfig fault;
};

class SharedL2 final : public L2Interface {
 public:
  explicit SharedL2(const SharedL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override;
  void writeback(Addr line, Mode owner, Cycle now) override;
  void prefetch(Addr line, Mode mode, Cycle now) override;
  void finalize(Cycle end) override;
  const EnergyBreakdown& energy() const override { return acct_.breakdown(); }
  CacheStats aggregate_stats() const override { return cache_.stats(); }
  std::uint64_t capacity_bytes() const override {
    return cache_.config().size_bytes;
  }
  double avg_enabled_bytes() const override {
    if (fault_ == nullptr || final_cycle_ == 0) {
      return static_cast<double>(capacity_bytes());
    }
    return enabled_byte_cycles_ / static_cast<double>(final_cycle_);
  }
  std::uint32_t quarantined_ways() const override {
    return fault_ == nullptr ? 0 : fault_->repair().quarantined_ways();
  }
  std::string describe() const override;
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    cache_.add_eviction_observer(std::move(obs));
  }

  const SetAssocCache& array() const { return cache_; }
  const TechParams& tech() const { return tech_; }
  /// Fills skipped by the stream write-bypass predictor.
  std::uint64_t bypassed_fills() const { return bypass_.bypasses(); }
  /// Wear-leveling rotations performed so far.
  std::uint64_t rotations() const { return rotations_; }
  /// Fault subsystem (null when SharedL2Config::fault is disabled).
  const FaultInjector* fault_injector() const { return fault_.get(); }
  /// Ways currently in service (excludes quarantined ways).
  WayMask active_mask() const {
    const WayMask full = full_way_mask(cache_.assoc());
    return fault_ == nullptr ? full : (full & fault_->repair().healthy_mask());
  }

 private:
  void maybe_refresh(Cycle now);
  /// Advances transient injection and drains pending way quarantines.
  void service_faults(Cycle now);
  /// Charges leakage for [leak_mark_, now) at the current enabled fraction.
  void settle_leakage(Cycle now);
  /// Translates a fault outcome on `r` into energy/events.
  void account_faults(const AccessResult& r, Addr line, Mode mode, Cycle now);

  SetAssocCache cache_;
  TechParams tech_;
  RefreshController refresher_;
  EnergyAccountant acct_;
  std::unique_ptr<FaultInjector> fault_;
  Cycle leak_mark_ = 0;               ///< leakage settled up to this cycle
  double enabled_byte_cycles_ = 0.0;  ///< ∫ enabled_bytes dt (fault runs)
  Cycle final_cycle_ = 0;
  /// Banked write-queue timing: reads wait out at most the in-flight write.
  void count_array_write();

  BankModel banks_;
  StreamBypassPredictor bypass_;
  std::uint64_t wear_rotate_writes_ = 0;
  std::uint64_t writes_since_rotation_ = 0;
  std::uint64_t rotations_ = 0;
  bool finalized_ = false;
};

}  // namespace mobcache
