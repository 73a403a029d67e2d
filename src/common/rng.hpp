#pragma once
/// \file rng.hpp
/// Deterministic, fast pseudo-random utilities for workload synthesis.
///
/// All simulation randomness flows through Rng so that every experiment is
/// exactly reproducible from its seed. The generator is xoshiro256**, which
/// is far faster than std::mt19937_64 and has no observable bias at the
/// scales used here.

#include <array>
#include <cstdint>
#include <vector>

namespace mobcache {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// per the authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value. next_u64() and uniform() are inline because the
  /// generators draw several values per trace record.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Geometric number of trials until success with success probability p;
  /// returns at least 1. Used for phase lengths and burst sizes.
  std::uint64_t geometric(double p);

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Index drawn from the (unnormalized) weight vector.
  std::size_t weighted(const std::vector<double>& weights);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Zipf(alpha) sampler over {0, ..., n-1}, item 0 most popular.
///
/// Used to model skewed reuse inside working sets (hot lines vs. cold
/// lines), the property that makes user-phase streams L1-friendly and kernel
/// streams L1-hostile.
///
/// The CDF table is built once per process for each (n, alpha) pair (alpha
/// compared by its exact bits) and shared read-only by every sampler with
/// that shape, so constructing a sampler is a memo lookup. The memo is
/// mutex-guarded: samplers may be constructed from any thread. It is never
/// pruned; its size is bounded by the distinct shapes the app and kernel
/// specs use.
///
/// sample() draws u = rng.uniform() and returns lower_bound(cdf, u), the
/// first item whose cumulative probability reaches u. A guide table of K
/// slots (K a power of two, about n/4) narrows that search:
/// guide[j] = lower_bound(cdf, j/K), and j = floor(u*K) bounds the answer to
/// [guide[j], guide[j+1]]. Both u*K and j/K are exact in binary floating
/// point, so the result is exactly the full binary search's index.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  std::size_t sample(Rng& rng) const;
  std::size_t size() const;

 private:
  struct Table;
  const Table* table_;
};

}  // namespace mobcache
