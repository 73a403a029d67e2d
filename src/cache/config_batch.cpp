#include "cache/config_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mobcache {

namespace {

/// Line addresses are kLineSize-aligned, so an all-ones word can never be a
/// real tag — same trick as the kNoTag sentinel in SetAssocCache.
constexpr Addr kEmptyTag = ~Addr{0};

}  // namespace

ShadowConfigBatch::ShadowConfigBatch(std::vector<ShadowGeometry> geometries,
                                     std::uint32_t sample_shift)
    : geoms_(std::move(geometries)), sample_shift_(sample_shift) {
  if (sample_shift >= 32) {
    throw std::invalid_argument("ShadowConfigBatch: sample_shift " +
                                std::to_string(sample_shift) +
                                " must be below 32");
  }
  sample_mask_ = (1u << sample_shift) - 1u;
  meta_.reserve(geoms_.size());
  std::size_t tag_total = 0;
  std::size_t depth_total = 0;
  for (const ShadowGeometry& g : geoms_) {
    if (g.num_sets == 0 || g.assoc == 0 ||
        (g.num_sets & (g.num_sets - 1)) != 0) {
      throw std::invalid_argument(
          "ShadowConfigBatch: geometry " + std::to_string(g.num_sets) +
          " sets x " + std::to_string(g.assoc) +
          " ways needs a power-of-two set count and assoc > 0");
    }
    const std::uint32_t sampled_sets =
        std::max(1u, g.num_sets >> sample_shift_);
    LaneMeta m;
    m.set_mask = g.num_sets - 1;
    m.row_mask = sampled_sets - 1;
    m.assoc = g.assoc;
    m.tag_base = tag_total;
    m.depth_base = depth_total;
    meta_.push_back(m);
    tag_total += static_cast<std::size_t>(sampled_sets) * m.assoc;
    depth_total += m.assoc;
  }
  tags_.assign(tag_total, kEmptyTag);
  hits_at_depth_.assign(depth_total, 0);
  accesses_.assign(geoms_.size(), 0);
}

void ShadowConfigBatch::observe(Addr line) {
  // Only the low bits survive each lane's set mask, so truncating the block
  // number to 32 bits first picks the same set.
  observe(line, static_cast<std::uint32_t>(line_addr(line) / kLineSize));
}

void ShadowConfigBatch::touch(std::size_t g, Addr l, std::uint32_t set) {
  const LaneMeta& m = meta_[g];
  ++accesses_[g];
  Addr* const row =
      tags_.data() + m.tag_base +
      static_cast<std::size_t>((set >> sample_shift_) & m.row_mask) * m.assoc;
  // MRU-first stack update in place: find the hit depth (a miss drops the
  // LRU entry), shift everything above it down one slot, insert at MRU.
  Addr* const end = row + m.assoc;
  Addr* pos = std::find(row, end, l);
  if (pos != end) {
    ++hits_at_depth_[m.depth_base + static_cast<std::size_t>(pos - row)];
  } else {
    pos = end - 1;
  }
  std::copy_backward(row, pos, pos + 1);
  row[0] = l;
}

void ShadowConfigBatch::new_epoch() {
  std::fill(hits_at_depth_.begin(), hits_at_depth_.end(), 0);
  std::fill(accesses_.begin(), accesses_.end(), 0);
}

std::uint64_t ShadowConfigBatch::observed_accesses(std::size_t g) const {
  return accesses_[g] * (1ull << sample_shift_);
}

std::uint64_t ShadowConfigBatch::hits_with_ways(std::size_t g,
                                                std::uint32_t ways) const {
  const LaneMeta& m = meta_[g];
  const std::uint32_t limit = std::min(ways, m.assoc);
  std::uint64_t hits = 0;
  for (std::uint32_t d = 0; d < limit; ++d) {
    hits += hits_at_depth_[m.depth_base + d];
  }
  return hits * (1ull << sample_shift_);
}

double ShadowConfigBatch::estimated_miss_rate(std::size_t g) const {
  return estimated_miss_rate(g, meta_[g].assoc);
}

double ShadowConfigBatch::estimated_miss_rate(std::size_t g,
                                              std::uint32_t ways) const {
  if (accesses_[g] == 0) return 0.0;
  const double hits = static_cast<double>(hits_with_ways(g, ways));
  const double acc = static_cast<double>(observed_accesses(g));
  return 1.0 - hits / acc;
}

}  // namespace mobcache
