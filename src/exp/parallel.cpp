#include "exp/parallel.hpp"

#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "common/cancel.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "energy/technology.hpp"

namespace mobcache {

unsigned effective_jobs(unsigned requested) {
  if (requested > 0) return requested;
  // 0 keeps its historical meaning of "auto" (same as --jobs=0).
  if (const auto v = env_u64("MOBCACHE_JOBS", 0, 65536); v && *v > 0)
    return static_cast<unsigned>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::uint64_t sweep_point_seed(std::uint64_t base_seed,
                               std::uint64_t point_index) {
  // splitmix64 over a golden-ratio stride: adjacent indices land far apart
  // in state space, and index 0 does not collapse onto the base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (point_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint64_t> derived_seeds(std::uint64_t base_seed,
                                         std::size_t count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    seeds.push_back(sweep_point_seed(base_seed, i));
  return seeds;
}

SweepExecutor::SweepExecutor(unsigned jobs) : jobs_(effective_jobs(jobs)) {}

namespace {

/// One worker's share of the point indices. A plain mutex per shard is
/// plenty: sweep points are whole simulations, so queue operations are
/// nanoseconds against milliseconds-to-seconds of work.
struct Shard {
  std::mutex m;
  std::deque<std::size_t> q;
};

}  // namespace

PointFailure point_failure_from(std::size_t index,
                                const std::exception_ptr& e) {
  PointFailure f;
  f.index = index;
  f.error_type = error_type_of(e);
  f.message = error_message_of(e);
  return f;
}

void SweepExecutor::for_each(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(jobs_, n) > 0 ? std::min<std::size_t>(jobs_, n)
                                          : 1;
  // Whole-run cancellation (SIGINT/SIGTERM) is checked once per point —
  // cheap against whole-simulation points, and it makes the executor stop
  // *handing out* points the moment the flag fires even if no simulate loop
  // happens to be polling.
  const CancelToken& cancel = global_cancel_token();
  if (workers == 1) {
    // Serial reference path: in index order, exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) {
      cancel.check();
      fn(i);
    }
    return;
  }

  // Deterministic block sharding: worker w owns [w*n/W, (w+1)*n/W). The
  // assignment is a pure function of (n, workers); only the *stealing* is
  // timing-dependent, and results are keyed by index, so output never is.
  std::vector<Shard> shards(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * n / workers;
    const std::size_t hi = (w + 1) * n / workers;
    for (std::size_t i = lo; i < hi; ++i) shards[w].q.push_back(i);
  }

  std::atomic<bool> cancelled{false};
  std::atomic<std::size_t> done{0};
  std::mutex err_m;
  std::exception_ptr err;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();

  // Sweeps must see the submitting thread's technology overrides
  // (ScopedTechnology is thread-local); capture once, re-apply per worker.
  const TechnologyConfig tech = technology();

  auto take_own = [&](std::size_t w) -> std::optional<std::size_t> {
    std::lock_guard<std::mutex> lock(shards[w].m);
    if (shards[w].q.empty()) return std::nullopt;
    const std::size_t i = shards[w].q.front();
    shards[w].q.pop_front();
    return i;
  };
  auto steal = [&](std::size_t w) -> std::optional<std::size_t> {
    for (std::size_t off = 1; off < workers; ++off) {
      Shard& victim = shards[(w + off) % workers];
      std::lock_guard<std::mutex> lock(victim.m);
      if (victim.q.empty()) continue;
      const std::size_t i = victim.q.back();
      victim.q.pop_back();
      return i;
    }
    return std::nullopt;
  };

  auto worker = [&](std::size_t w) {
    ScopedTechnology scope(tech);
    while (!cancelled.load(std::memory_order_relaxed) &&
           !cancel.cancel_requested()) {
      std::optional<std::size_t> i = take_own(w);
      if (!i) i = steal(w);
      if (!i) return;  // every shard drained — done
      try {
        fn(*i);
        done.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_m);
        if (*i < err_index) {
          err_index = *i;
          err = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
  if (err) std::rethrow_exception(err);
  // No point raised an error, but points were left unrun: the global token
  // fired and the sweep stopped handing out work. Surface that as
  // CancelledError so the caller flushes and exits resumable instead of
  // reporting a truncated sweep as a full result. (A token that fired
  // *after* the last point drained changes nothing — the sweep completed.)
  if (done.load(std::memory_order_relaxed) < n) cancel.check();
}

}  // namespace mobcache
