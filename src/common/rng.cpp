#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace mobcache {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // A fully-zero state would be absorbing; splitmix64 never yields four
  // zeros from distinct steps, but keep the guarantee explicit.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift rejection method: unbiased and division-free in
  // the common case.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + below(hi - lo + 1);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::geometric(double p) {
  p = std::clamp(p, 1e-9, 1.0 - 1e-12);
  const double u = std::max(uniform(), 1e-300);
  const double trials = std::floor(std::log(u) / std::log1p(-p)) + 1.0;
  return trials < 1.0 ? 1 : static_cast<std::uint64_t>(trials);
}

double Rng::exponential(double mean) {
  const double u = std::max(uniform(), 1e-300);
  return -mean * std::log(u);
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0.0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

struct ZipfSampler::Table {
  std::vector<double> cdf;
  /// guide[j] = lower_bound(cdf, j / slots) for j in [0, slots]; item
  /// indices fit 32 bits (a 2^32-item CDF would take 32 GB).
  std::vector<std::uint32_t> guide;
  double slots = 1.0;  ///< a power of two, so u * slots and j / slots are exact

  Table(std::size_t n, double alpha) : cdf(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf[i] = sum;
    }
    for (double& c : cdf) c /= sum;

    // About one guide slot per kGuideItemsPerSlot items: the tail, where the
    // CDF is flattest, then holds only a handful of items per slot.
    constexpr std::size_t kGuideItemsPerSlot = 4;
    const std::size_t k = std::bit_ceil((n + kGuideItemsPerSlot - 1) /
                                        kGuideItemsPerSlot);
    slots = static_cast<double>(k);
    guide.resize(k + 1);
    std::size_t idx = 0;
    for (std::size_t j = 0; j <= k; ++j) {
      const double edge = static_cast<double>(j) / slots;
      while (idx < n && cdf[idx] < edge) ++idx;
      guide[j] = static_cast<std::uint32_t>(idx);
    }
  }
};

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  if (n == 0) n = 1;
  using Key = std::pair<std::size_t, std::uint64_t>;
  static std::mutex mu;
  // Leaked on purpose: samplers held by static objects stay valid at exit.
  static auto* memo = new std::map<Key, std::unique_ptr<const Table>>;

  const Key key{n, std::bit_cast<std::uint64_t>(alpha)};
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*memo)[key];
  if (!slot) slot = std::make_unique<const Table>(n, alpha);
  table_ = slot.get();
}

std::size_t ZipfSampler::size() const { return table_->cdf.size(); }

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto j = static_cast<std::size_t>(u * table_->slots);
  const double* cdf = table_->cdf.data();
  const double* it = std::lower_bound(cdf + table_->guide[j],
                                      cdf + table_->guide[j + 1], u);
  const auto i = static_cast<std::size_t>(it - cdf);
  return i == table_->cdf.size() ? i - 1 : i;
}

}  // namespace mobcache
