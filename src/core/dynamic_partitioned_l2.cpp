#include "core/dynamic_partitioned_l2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/telemetry.hpp"

namespace mobcache {

namespace {

Cycle clamp_interval(Cycle requested, Cycle retention) {
  if (retention == 0) return requested;
  return std::min(requested, retention / 2);
}

ControllerConfig tuned_controller(const DynamicL2Config& cfg,
                                  const TechParams& tech) {
  ControllerConfig c = cfg.controller;
  c.total_ways = cfg.cache.assoc;
  // Energy criterion: one way's static power; the controller multiplies by
  // the measured epoch span to decide whether a way's hits pay its leakage.
  c.way_leak_mw = tech.leakage_mw / static_cast<double>(cfg.cache.assoc);
  c.dram_nj_per_miss = tech_constants::kDramAccessNj;
  return c;
}

}  // namespace

DynamicPartitionedL2::DynamicPartitionedL2(const DynamicL2Config& cfg)
    : cfg_(cfg),
      cache_(cfg.cache),
      tech_(cfg.tech == TechKind::Sram
                ? make_sram(cfg.cache.size_bytes)
                : make_sttram(cfg.cache.size_bytes, cfg.retention)),
      refresher_(cfg.refresh, clamp_interval(cfg.refresh_check_interval,
                                             tech_.retention_cycles)),
      controller_(tuned_controller(cfg, tech_)),
      alloc_(controller_.current()),
      user_monitor_({{cfg.cache.num_sets(), cfg.cache.assoc}},
                    cfg.monitor_sample_shift),
      kernel_monitor_({{cfg.cache.num_sets(), cfg.cache.assoc}},
                      cfg.monitor_sample_shift) {
  cache_.set_retention_period(tech_.retention_cycles);
  if (cfg.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(cfg.fault, cache_);
  }
  rescale_active_tech();
}

double DynamicPartitionedL2::enabled_fraction() const {
  if (fault_ == nullptr) {
    return static_cast<double>(alloc_.total()) /
           static_cast<double>(cache_.assoc());
  }
  const auto masks = masks_for(alloc_);
  return static_cast<double>(std::popcount(masks[0] | masks[1])) /
         static_cast<double>(cache_.assoc());
}

WayAllocation DynamicPartitionedL2::clamp_to_healthy(WayAllocation a) const {
  if (fault_ == nullptr) return a;
  const std::uint32_t h = fault_->repair().healthy_ways();
  while (a.user_ways + a.kernel_ways > h) {
    if (a.user_ways > a.kernel_ways) {
      --a.user_ways;
    } else if (a.kernel_ways > 1) {
      --a.kernel_ways;
    } else if (a.user_ways > 0) {
      --a.user_ways;
    } else {
      --a.kernel_ways;  // unreachable: repair never drains the last way
    }
  }
  return a;
}

void DynamicPartitionedL2::service_faults(Cycle now) {
  fault_->tick(now);
  auto& rep = fault_->repair();
  while (rep.has_pending()) {
    // Settle at the old enabled fraction before the way leaves the mask.
    settle_leakage(now);
    const std::uint32_t way = rep.take_pending();
    const std::uint64_t dirty = cache_.invalidate_ways(way_bit(way));
    reconfig_writebacks_ += dirty;
    acct_.add_dram(dirty);
    if (telemetry_ != nullptr) {
      telemetry_->record(WayQuarantineEvent{now, cache_.config().name, way,
                                            rep.fault_count(way),
                                            rep.healthy_ways(), dirty});
    }
    // The budget shrank: renegotiate the live split instead of asserting.
    alloc_ = clamp_to_healthy(alloc_);
    rescale_active_tech();
  }
}

void DynamicPartitionedL2::rescale_active_tech() {
  // Power-gated ways neither precharge bitlines nor fire sense amps, and an
  // access only probes the ways of its own segment, so per-access dynamic
  // energy follows the same ~sqrt(capacity) law as a standalone array of
  // the segment's size. Leakage keeps using the full-array params scaled by
  // enabled_fraction (see settle_leakage).
  const std::uint32_t ways[kModeCount] = {alloc_.user_ways,
                                          alloc_.kernel_ways};
  for (int m = 0; m < kModeCount; ++m) {
    seg_tech_[m] = tech_;
    const double frac = static_cast<double>(ways[m]) /
                        static_cast<double>(cache_.assoc());
    const double s = std::sqrt(std::max(frac, 1e-9));
    seg_tech_[m].read_energy_nj *= s;
    seg_tech_[m].write_energy_nj *= s;
  }
}

void DynamicPartitionedL2::settle_leakage(Cycle now) {
  if (now <= last_change_) return;
  const auto span = static_cast<double>(now - last_change_);
  enabled_byte_cycles_ +=
      span * enabled_fraction() *
      static_cast<double>(cache_.config().size_bytes);
  acct_.add_leakage(tech_, now - last_change_, enabled_fraction());
  last_change_ = now;
}

void DynamicPartitionedL2::apply_allocation(WayAllocation next, Cycle now) {
  if (next.user_ways == alloc_.user_ways &&
      next.kernel_ways == alloc_.kernel_ways) {
    return;
  }
  settle_leakage(now);

  // Only ways that power off must be written back and invalidated. A way
  // transferred between segments keeps its contents: user and kernel
  // address spaces are disjoint, so the new owner can never falsely hit a
  // stale block — it just evicts them on demand (lazy handover, far cheaper
  // than a bulk flush on every phase change).
  const auto old_masks = masks_for(alloc_);
  const auto new_masks = masks_for(next);
  const WayMask old_on = old_masks[0] | old_masks[1];
  const WayMask new_on = new_masks[0] | new_masks[1];
  const WayMask to_flush = old_on & ~new_on;
  std::uint64_t flushed = 0;
  if (to_flush != 0) {
    flushed = cache_.invalidate_ways(to_flush);
    reconfig_writebacks_ += flushed;
    acct_.add_dram(flushed);
  }

  if (telemetry_) {
    telemetry_->record(PartitionResizeEvent{now, alloc_.user_ways,
                                            alloc_.kernel_ways, next.user_ways,
                                            next.kernel_ways, flushed});
  }

  alloc_ = next;
  rescale_active_tech();
  history_.push_back({now, alloc_.user_ways, alloc_.kernel_ways});
}

void DynamicPartitionedL2::maybe_epoch(Cycle now) {
  if (epoch_access_count_ < cfg_.epoch_accesses) return;

  auto demand_of = [&](const ShadowConfigBatch& mon, int mode_idx) {
    ModeDemand d;
    d.hits_with.resize(cache_.assoc() + 1, 0);
    for (std::uint32_t w = 1; w <= cache_.assoc(); ++w)
      d.hits_with[w] = mon.hits_with_ways(0, w);
    d.monitor_accesses = mon.observed_accesses(0);
    d.accesses = epoch_accesses_[mode_idx];
    d.misses = epoch_misses_[mode_idx];
    d.epoch_cycles = now > epoch_start_cycle_ ? now - epoch_start_cycle_ : 0;
    return d;
  };

  const ModeDemand user = demand_of(user_monitor_, 0);
  const ModeDemand kernel = demand_of(kernel_monitor_, 1);
  apply_allocation(clamp_to_healthy(controller_.decide(user, kernel)), now);

  // Settle leakage at every epoch boundary (idempotent when the allocation
  // just changed) so the telemetry sample below attributes the interval's
  // static energy to this epoch rather than whenever the next resize lands.
  settle_leakage(now);
  if (telemetry_) {
    EpochSample s;
    s.epoch = epoch_index_;
    s.cycle = now;
    s.accesses = epoch_accesses_[0] + epoch_accesses_[1];
    s.misses = epoch_misses_[0] + epoch_misses_[1];
    fill_sample(s);
    const EnergyBreakdown d = acct_.breakdown() - last_epoch_energy_;
    s.refresh_nj = d.refresh_nj;
    s.leakage_nj = d.leakage_nj;
    telemetry_->record(s);
  }
  ++epoch_index_;
  last_epoch_energy_ = acct_.breakdown();

  user_monitor_.new_epoch();
  kernel_monitor_.new_epoch();
  epoch_access_count_ = 0;
  epoch_misses_[0] = epoch_misses_[1] = 0;
  epoch_accesses_[0] = epoch_accesses_[1] = 0;
  epoch_start_cycle_ = now;
}

L2Result DynamicPartitionedL2::do_access(Addr line, AccessType type,
                                         Mode mode, Cycle now, bool demand,
                                         bool prefetch) {
  if (fault_ != nullptr) service_faults(now);
  if (tech_.retention_cycles != 0 && refresher_.due(now)) {
    const RefreshTickResult rt =
        refresher_.tick(cache_, now, refresh_tech(), acct_);
    if (telemetry_ && (rt.refreshed | rt.expired_clean | rt.expired_dirty |
                       rt.repaired | rt.fault_lost)) {
      telemetry_->record(RefreshBurstEvent{now, rt.refreshed, rt.expired_clean,
                                           rt.expired_dirty, rt.repaired,
                                           rt.fault_lost});
    }
  }

  if (demand) {
    (mode == Mode::User ? user_monitor_ : kernel_monitor_)
        .observe(line, cache_.set_index(line));
    ++epoch_access_count_;
    ++epoch_accesses_[static_cast<int>(mode)];
  }

  const AccessResult r =
      cache_.access(line, type, mode, now, mask_of(mode), prefetch);
  if (fault_ != nullptr) {
    if (r.ecc_corrected) acct_.add_ecc(fault_->ecc().correction_energy_nj());
    if (telemetry_ != nullptr && (r.ecc_corrected || r.fault_lost)) {
      telemetry_->record(FaultEvent{
          now, line, mode,
          r.fault_lost ? FaultReadOutcome::Lost : FaultReadOutcome::Corrected,
          r.fault_lost_dirty});
    }
  }

  L2Result out;
  out.hit = r.hit;
  const Cycle stall = banks_.read_stall(line, now, tech_.write_latency);

  const TechParams& seg = seg_tech_[static_cast<int>(mode)];
  if (prefetch) {
    acct_.add_read(seg);  // tag probe
    if (r.filled) {
      acct_.add_dram(1);
      acct_.add_write(seg);
      if (r.victim_dirty) acct_.add_dram(1);
      if (r.expired_was_dirty) acct_.add_dram(1);
    }
    return out;
  }
  if (r.hit) {
    if (type == AccessType::Write) {
      acct_.add_write(seg);
      banks_.write_enqueue(line, now, tech_.write_latency);
    } else {
      acct_.add_read(seg);
      out.latency = stall + tech_.read_latency;
      if (r.ecc_corrected) out.latency += fault_->ecc().correction_latency();
    }
  } else {
    if (demand) ++epoch_misses_[static_cast<int>(mode)];
    acct_.add_read(seg);
    acct_.add_dram(1);
    acct_.add_write(seg);
    if (r.victim_dirty) acct_.add_dram(1);
    if (r.expired_was_dirty) acct_.add_dram(1);
    // Fill writes drain through the fill buffer, overlapped with DRAM.
    out.latency = type == AccessType::Write
                      ? 0
                      : stall + tech_.read_latency +
                            dram_visible_stall_cycles();
  }

  if (demand) maybe_epoch(now);
  return out;
}

L2Result DynamicPartitionedL2::access(Addr line, AccessType type, Mode mode,
                                      Cycle now) {
  return do_access(line, type, mode, now, /*demand=*/true);
}

void DynamicPartitionedL2::writeback(Addr line, Mode owner, Cycle now) {
  do_access(line, AccessType::Write, owner, now, /*demand=*/false);
}

void DynamicPartitionedL2::prefetch(Addr line, Mode mode, Cycle now) {
  do_access(line, AccessType::Read, mode, now, /*demand=*/false,
            /*prefetch=*/true);
}

void DynamicPartitionedL2::finalize(Cycle end) {
  if (finalized_) return;
  finalized_ = true;
  if (fault_ != nullptr) service_faults(end);
  // Same-cycle re-entry after the last access is idempotent inside tick().
  if (tech_.retention_cycles != 0)
    refresher_.tick(cache_, end, refresh_tech(), acct_);
  acct_.add_dram(
      cache_.dirty_occupancy(full_way_mask(cache_.assoc()), end));
  settle_leakage(end);
  final_cycle_ = end;
}

double DynamicPartitionedL2::avg_enabled_bytes() const {
  if (final_cycle_ == 0) return static_cast<double>(capacity_bytes());
  return enabled_byte_cycles_ / static_cast<double>(final_cycle_);
}

const TechParams& DynamicPartitionedL2::refresh_tech() const {
  // Scrub rewrites happen inside whichever segment holds the block; charge
  // the larger segment's (costlier) write energy as a conservative bound.
  return seg_tech_[alloc_.user_ways >= alloc_.kernel_ways ? 0 : 1];
}

std::string DynamicPartitionedL2::describe() const {
  std::string d = "dynamic-partitioned ";
  d += std::to_string(cache_.config().size_bytes >> 10);
  d += "KB ";
  d += std::to_string(cache_.assoc());
  d += "-way ";
  d += to_string(tech_.kind);
  if (tech_.kind == TechKind::SttRam) {
    d += " ";
    d += to_string(tech_.retention);
  }
  d += " (";
  d += to_string(controller_.config().monitor);
  d += ")";
  return d;
}

}  // namespace mobcache
