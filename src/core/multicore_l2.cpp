#include "core/multicore_l2.hpp"

#include <algorithm>
#include <cmath>

namespace mobcache {

namespace {

Cycle clamp_interval(Cycle requested, Cycle retention) {
  if (retention == 0) return requested;
  return std::min(requested, retention / 2);
}

}  // namespace

MulticoreDynamicL2::MulticoreDynamicL2(const MulticoreL2Config& cfg)
    : cfg_(cfg),
      cache_(cfg.cache),
      tech_(cfg.tech == TechKind::Sram
                ? make_sram(cfg.cache.size_bytes)
                : make_sttram(cfg.cache.size_bytes, cfg.retention)),
      refresher_(cfg.refresh, clamp_interval(cfg.refresh_check_interval,
                                             tech_.retention_cycles)) {
  cache_.set_retention_period(tech_.retention_cycles);
  const std::uint32_t groups = cfg_.cores + 1;
  // Even initial split across groups.
  ways_.assign(groups, std::max(cfg_.min_ways_per_group,
                                cfg_.cache.assoc / groups));
  while (enabled_ways() > cfg_.cache.assoc) {
    auto it = std::max_element(ways_.begin(), ways_.end());
    --*it;
  }
  // Initial stable ownership: group g takes the next ways_[g] ways.
  way_owner_.assign(cfg_.cache.assoc, -1);
  std::uint32_t next_way = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    for (std::uint32_t i = 0; i < ways_[g]; ++i)
      way_owner_[next_way++] = static_cast<int>(g);
  }
  rebuild_masks();
  epoch_accesses_.assign(groups, 0);
  monitors_.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    monitors_.emplace_back(
        std::vector<ShadowGeometry>{{cfg_.cache.num_sets(), cfg_.cache.assoc}},
        cfg_.monitor_sample_shift);
  }
}

void MulticoreDynamicL2::rebuild_masks() {
  group_mask_.assign(ways_.size(), 0);
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] >= 0)
      group_mask_[static_cast<std::uint32_t>(way_owner_[w])] |= 1ull << w;
  }
}

std::uint32_t MulticoreDynamicL2::enabled_ways() const {
  std::uint32_t total = 0;
  for (std::uint32_t w : ways_) total += w;
  return total;
}

void MulticoreDynamicL2::settle_leakage(Cycle now) {
  if (now <= last_change_) return;
  const double frac = static_cast<double>(enabled_ways()) /
                      static_cast<double>(cache_.assoc());
  const Cycle span = now - last_change_;
  enabled_byte_cycles_ += static_cast<double>(span) * frac *
                          static_cast<double>(cache_.config().size_bytes);
  acct_.add_leakage(tech_, span, frac);
  last_change_ = now;
}

void MulticoreDynamicL2::decide_and_apply(Cycle now) {
  const std::uint32_t groups = static_cast<std::uint32_t>(ways_.size());

  // Per-group target from the miss-slack criterion (same math as the
  // two-group controller).
  std::vector<std::uint32_t> target(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const ShadowConfigBatch& mon = monitors_[g];
    const std::uint64_t full_hits = mon.hits_with_ways(0, cache_.assoc());
    const std::uint64_t accesses =
        std::max(mon.observed_accesses(0), full_hits);
    if (accesses == 0) {
      target[g] = cfg_.min_ways_per_group;
      continue;
    }
    const double full_misses =
        static_cast<double>(accesses) - static_cast<double>(full_hits);
    const double required =
        static_cast<double>(full_hits) - cfg_.miss_slack * full_misses;
    std::uint32_t w = cache_.assoc();
    for (std::uint32_t c = cfg_.min_ways_per_group; c <= cache_.assoc();
         ++c) {
      if (static_cast<double>(mon.hits_with_ways(0, c)) >= required) {
        w = c;
        break;
      }
    }
    target[g] = std::max(w, cfg_.min_ways_per_group);
  }

  // Damped approach toward the targets.
  std::vector<std::uint32_t> next(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::uint32_t cur = ways_[g];
    const std::uint32_t tgt = target[g];
    next[g] = tgt > cur ? cur + std::min(tgt - cur, cfg_.max_step)
                        : cur - std::min(cur - tgt, cfg_.max_step);
  }

  // Budget: trim the group with the weakest marginal utility until it fits.
  auto marginal = [&](std::uint32_t g) {
    const std::uint32_t w = next[g];
    if (w <= cfg_.min_ways_per_group) return 1e18;  // cannot shrink
    return static_cast<double>(monitors_[g].hits_with_ways(0, w) -
                               monitors_[g].hits_with_ways(0, w - 1));
  };
  std::uint32_t total = 0;
  for (std::uint32_t w : next) total += w;
  while (total > cache_.assoc()) {
    std::uint32_t weakest = 0;
    double weakest_marginal = 1e18;
    for (std::uint32_t g = 0; g < groups; ++g) {
      const double m = marginal(g);
      if (m < weakest_marginal) {
        weakest_marginal = m;
        weakest = g;
      }
    }
    if (weakest_marginal >= 1e18) break;  // everyone at minimum
    --next[weakest];
    --total;
  }

  if (next == ways_) return;
  settle_leakage(now);

  // Move ownership with stable assignment: shrinking groups release their
  // highest-index ways into a free pool; growing groups claim from the pool
  // (or from previously-off ways). Unclaimed releases power off and flush.
  std::vector<std::uint32_t> freed;
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint32_t to_release = ways_[g] > next[g] ? ways_[g] - next[g] : 0;
    for (std::uint32_t w = cfg_.cache.assoc; w-- > 0 && to_release > 0;) {
      if (way_owner_[w] == static_cast<int>(g)) {
        way_owner_[w] = -1;
        freed.push_back(w);
        --to_release;
      }
    }
  }
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] == -1 &&
        std::find(freed.begin(), freed.end(), w) == freed.end()) {
      freed.push_back(w);  // previously-off ways are claimable too
    }
  }
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint32_t to_claim = next[g] > ways_[g] ? next[g] - ways_[g] : 0;
    while (to_claim > 0 && !freed.empty()) {
      way_owner_[freed.back()] = static_cast<int>(g);
      freed.pop_back();
      --to_claim;
    }
  }
  ways_ = next;
  rebuild_masks();
  // Whatever is left in the pool is powered off: flush it.
  WayMask off = 0;
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] == -1) off |= 1ull << w;
  }
  if (off != 0) {
    const std::uint64_t dirty = cache_.invalidate_ways(off);
    acct_.add_dram(dirty);
  }
  ++reconfigs_;
}

void MulticoreDynamicL2::maybe_epoch(Cycle now) {
  if (epoch_total_ < cfg_.epoch_accesses) return;
  decide_and_apply(now);
  for (auto& m : monitors_) m.new_epoch();
  std::fill(epoch_accesses_.begin(), epoch_accesses_.end(), 0);
  epoch_total_ = 0;
}

L2Result MulticoreDynamicL2::access(Addr line, AccessType type, Mode mode,
                                    std::uint32_t core, Cycle now) {
  if (tech_.retention_cycles != 0 && refresher_.due(now)) {
    refresher_.tick(cache_, now, tech_, acct_);
  }

  const std::uint32_t g = group_of(mode, core);
  monitors_[g].observe(line, cache_.set_index(line));
  ++epoch_accesses_[g];
  ++epoch_total_;

  const AccessResult r = cache_.access(line, type, mode, now, mask_of(g));
  const double seg_frac = static_cast<double>(ways_[g]) /
                          static_cast<double>(cache_.assoc());
  TechParams seg = tech_;
  const double scale = std::sqrt(std::max(seg_frac, 1e-9));
  seg.read_energy_nj *= scale;
  seg.write_energy_nj *= scale;

  L2Result out;
  out.hit = r.hit;
  if (r.hit) {
    if (type == AccessType::Write) {
      acct_.add_write(seg);
    } else {
      acct_.add_read(seg);
      out.latency = tech_.read_latency;
    }
  } else {
    acct_.add_read(seg);
    acct_.add_dram(1);
    acct_.add_write(seg);
    if (r.victim_dirty) acct_.add_dram(1);
    if (r.expired_was_dirty) acct_.add_dram(1);
    out.latency = type == AccessType::Write
                      ? 0
                      : tech_.read_latency +
                            dram_visible_stall_cycles();
  }

  maybe_epoch(now);
  return out;
}

void MulticoreDynamicL2::writeback(Addr line, Mode owner, std::uint32_t core,
                                   Cycle now) {
  const std::uint32_t g = group_of(owner, core);
  const AccessResult r =
      cache_.access(line, AccessType::Write, owner, now, mask_of(g));
  acct_.add_write(tech_);
  if (!r.hit) {
    if (r.victim_dirty) acct_.add_dram(1);
    if (r.expired_was_dirty) acct_.add_dram(1);
  }
}

void MulticoreDynamicL2::finalize(Cycle end) {
  if (finalized_) return;
  finalized_ = true;
  if (tech_.retention_cycles != 0) refresher_.tick(cache_, end, tech_, acct_);
  acct_.add_dram(cache_.dirty_occupancy(full_way_mask(cache_.assoc()), end));
  settle_leakage(end);
  final_cycle_ = end;
}

double MulticoreDynamicL2::avg_enabled_bytes() const {
  if (final_cycle_ == 0) return static_cast<double>(capacity_bytes());
  return enabled_byte_cycles_ / static_cast<double>(final_cycle_);
}

std::string MulticoreDynamicL2::describe() const {
  std::string d = "multicore-dynamic ";
  d += std::to_string(cache_.config().size_bytes >> 10);
  d += "KB ";
  d += std::to_string(cfg_.cores);
  d += "-core (";
  d += std::to_string(groups());
  d += " groups) ";
  d += to_string(tech_.kind);
  return d;
}

}  // namespace mobcache
