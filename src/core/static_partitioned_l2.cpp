#include "core/static_partitioned_l2.hpp"

namespace mobcache {

namespace {

SharedL2Config to_shared_config(const SegmentSpec& s, const char* name) {
  SharedL2Config c;
  c.cache.name = name;
  c.cache.size_bytes = s.size_bytes;
  c.cache.assoc = s.assoc;
  c.cache.repl = s.repl;
  c.tech = s.tech;
  c.retention = s.retention;
  c.refresh = s.refresh;
  c.refresh_check_interval = s.refresh_check_interval;
  c.bypass = s.bypass;
  c.wear_rotate_writes = s.wear_rotate_writes;
  c.fault = s.fault;
  return c;
}

}  // namespace

StaticPartitionedL2::StaticPartitionedL2(const StaticPartitionConfig& cfg) {
  segments_[static_cast<int>(Mode::User)] =
      std::make_unique<SharedL2>(to_shared_config(cfg.user, "L2.user"));
  segments_[static_cast<int>(Mode::Kernel)] =
      std::make_unique<SharedL2>(to_shared_config(cfg.kernel, "L2.kernel"));
}

L2Result StaticPartitionedL2::access(Addr line, AccessType type, Mode mode,
                                     Cycle now) {
  return seg(mode).access(line, type, mode, now);
}

void StaticPartitionedL2::writeback(Addr line, Mode owner, Cycle now) {
  seg(owner).writeback(line, owner, now);
}

void StaticPartitionedL2::prefetch(Addr line, Mode mode, Cycle now) {
  seg(mode).prefetch(line, mode, now);
}

void StaticPartitionedL2::finalize(Cycle end) {
  for (auto& s : segments_) s->finalize(end);
}

const EnergyBreakdown& StaticPartitionedL2::energy() const {
  merged_ = EnergyBreakdown{};
  for (const auto& s : segments_) merged_ += s->energy();
  return merged_;
}

CacheStats StaticPartitionedL2::aggregate_stats() const {
  CacheStats out;
  for (const auto& s : segments_) {
    const CacheStats& c = s->aggregate_stats();
    for (int m = 0; m < kModeCount; ++m) {
      out.accesses[m] += c.accesses[m];
      out.hits[m] += c.hits[m];
    }
    out.store_hits += c.store_hits;
    out.fills += c.fills;
    out.evictions += c.evictions;
    out.writebacks += c.writebacks;
    out.cross_mode_evictions += c.cross_mode_evictions;
    out.expired_blocks += c.expired_blocks;
    out.expired_dirty += c.expired_dirty;
    out.refreshes += c.refreshes;
    out.prefetch_fills += c.prefetch_fills;
    out.useful_prefetches += c.useful_prefetches;
    out.write_faults += c.write_faults;
    out.transient_upsets += c.transient_upsets;
    out.ecc_corrections += c.ecc_corrections;
    out.fault_losses += c.fault_losses;
    out.fault_lost_dirty += c.fault_lost_dirty;
    out.scrub_repairs += c.scrub_repairs;
    out.silent_faults += c.silent_faults;
  }
  return out;
}

std::uint64_t StaticPartitionedL2::capacity_bytes() const {
  return segments_[0]->capacity_bytes() + segments_[1]->capacity_bytes();
}

std::string StaticPartitionedL2::describe() const {
  return "static-partitioned [user: " + segments_[0]->describe() +
         "] [kernel: " + segments_[1]->describe() + "]";
}

void StaticPartitionedL2::add_eviction_observer(
    std::function<void(const EvictionEvent&)> obs) {
  // Both segments share the observer; events carry the owner mode.
  segments_[0]->add_eviction_observer(obs);
  segments_[1]->add_eviction_observer(std::move(obs));
}

void StaticPartitionedL2::attach_telemetry(Telemetry* t) {
  L2Interface::attach_telemetry(t);
  // Segments emit their own fault/refresh/quarantine events (tagged by
  // array name), so the session must reach them too.
  segments_[0]->attach_telemetry(t);
  segments_[1]->attach_telemetry(t);
}

double StaticPartitionedL2::avg_enabled_bytes() const {
  return segments_[0]->avg_enabled_bytes() + segments_[1]->avg_enabled_bytes();
}

SegmentSpec sram_segment(std::uint64_t size_bytes, std::uint32_t assoc) {
  SegmentSpec s;
  s.size_bytes = size_bytes;
  s.assoc = assoc;
  s.tech = TechKind::Sram;
  return s;
}

SegmentSpec sttram_segment(std::uint64_t size_bytes, std::uint32_t assoc,
                           RetentionClass r, RefreshPolicy p) {
  SegmentSpec s;
  s.size_bytes = size_bytes;
  s.assoc = assoc;
  s.tech = TechKind::SttRam;
  s.retention = r;
  s.refresh = p;
  return s;
}

}  // namespace mobcache
