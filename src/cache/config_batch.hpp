#pragma once
/// \file config_batch.hpp
/// Lane-per-config SoA shadow-tag batch: the one stack-distance structure.
/// A lane is one cache geometry's sampled LRU stacks (UMON-style, Qureshi &
/// Patt); one pass over an access stream profiles every lane at once.
///
/// Two kinds of caller share it. The dynamic partition controllers run a
/// one-lane batch per mode or core group as their utility monitor, feeding
/// it the set index their real array computes. The sweep estimator profiles
/// many geometries side by side from a captured demand stream, the
/// auxiliary-tag / set-sampling technique of Mittal's DCR line of work. Each
/// lane keeps a flat tag array (sampled_sets × assoc, MRU-first within a
/// set) in one shared SoA allocation, mirroring SetAssocCache's tag-lane
/// layout: the probe loop touches only contiguous Addr words, with an
/// explicit invalid-tag sentinel instead of valid bits.
///
/// The stack-distance property makes one pass serve every way count: a hit
/// at MRU depth d would hit any allocation of more than d ways, so
/// hits_at_depth histograms answer "what would a W-way cache of this set
/// count have done" for all W ≤ assoc simultaneously. As a geometry
/// estimator it is an approximation — true LRU stacks, no retention/fault/
/// bank effects, sampled sets — used to triage which geometries deserve a
/// real simulation lane (sim/batch.hpp); its gated error bound is in
/// docs/SWEEP_ENGINE.md.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

/// One profiled cache geometry: `num_sets` must be a power of two and
/// `assoc` nonzero (the batch constructor throws std::invalid_argument
/// otherwise). `assoc` is the stack depth (== the largest way count the
/// lane can answer for).
struct ShadowGeometry {
  std::uint32_t num_sets = 1;
  std::uint32_t assoc = 1;
};

class ShadowConfigBatch {
 public:
  /// Profiles 1-in-2^sample_shift sets of every geometry. sample_shift 0
  /// monitors every set (exact LRU-stack behaviour); larger shifts trade
  /// accuracy for memory/time, scaling counters back up by the sampling
  /// factor (sample_shift must be below 32). A geometry with fewer than
  /// 2^sample_shift sets degrades to monitoring set 0 only.
  explicit ShadowConfigBatch(std::vector<ShadowGeometry> geometries,
                             std::uint32_t sample_shift = 0);

  /// Advances every geometry lane by one access to `line` (line-aligned or
  /// not; the set index is the low bits of line_addr()/kLineSize).
  void observe(Addr line);

  /// Same, but in set `set`, reduced modulo each lane's num_sets. A one-lane
  /// batch shadowing a real array passes that array's own set index
  /// (SetAssocCache::set_index), so it samples exactly the sets the array
  /// uses whatever its index function.
  void observe(Addr line, std::uint32_t set) {
    // Inline so the common unsampled case costs a mask test, not a call.
    for (std::size_t g = 0; g < meta_.size(); ++g) {
      const std::uint32_t s = set & meta_[g].set_mask;
      if ((s & sample_mask_) == 0) touch(g, line_addr(line), s);
    }
  }

  /// Clears every counter but keeps the stacks warm, so a utility monitor's
  /// next epoch is not polluted by cold-start misses.
  void new_epoch();

  std::size_t lanes() const { return geoms_.size(); }
  const ShadowGeometry& geometry(std::size_t g) const { return geoms_[g]; }

  /// Accesses lane `g` observed, scaled up by the sampling factor.
  std::uint64_t observed_accesses(std::size_t g) const;

  /// Hits a `ways`-way allocation of lane g's sets would have served
  /// (scaled up by the sampling factor). ways is clamped to the lane's
  /// assoc. Nondecreasing in `ways` by construction.
  std::uint64_t hits_with_ways(std::size_t g, std::uint32_t ways) const;

  /// 1 - hits/accesses at the lane's full associativity (0 when the lane
  /// sampled nothing).
  double estimated_miss_rate(std::size_t g) const;
  double estimated_miss_rate(std::size_t g, std::uint32_t ways) const;

 private:
  struct LaneMeta {
    std::uint32_t set_mask = 0;  ///< num_sets - 1
    std::uint32_t row_mask = 0;  ///< sampled_sets - 1
    std::uint32_t assoc = 1;
    std::size_t tag_base = 0;    ///< offset into tags_ (sampled_sets × assoc)
    std::size_t depth_base = 0;  ///< offset into hits_at_depth_
  };

  /// Advances lane g's stack for sampled set `set` by one access to `l`.
  void touch(std::size_t g, Addr l, std::uint32_t set);

  std::vector<ShadowGeometry> geoms_;
  std::vector<LaneMeta> meta_;
  std::uint32_t sample_shift_;
  std::uint32_t sample_mask_ = 0;  ///< a set is sampled when (set & mask) == 0
  /// All lanes' tag arrays, concatenated; MRU-first within each set row.
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> hits_at_depth_;
  std::vector<std::uint64_t> accesses_;  ///< per lane, unscaled
};

}  // namespace mobcache
