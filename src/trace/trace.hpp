#pragma once
/// \file trace.hpp
/// Memory-access trace representation.
///
/// A Trace is the interface between the workload generator (or an external
/// trace file) and the simulated memory hierarchy. Records carry the
/// privilege mode explicitly — the property the whole paper is built on.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

/// One dynamic memory reference. Field order packs the record into 12 used
/// bytes (16 with alignment padding): traces hold hundreds of millions of
/// these and the simulator streams them sequentially, so layout is part of
/// the hot-path contract and pinned by static_asserts below.
struct Access {
  Addr addr = 0;             ///< virtual byte address (kernel half ⇔ Mode::Kernel)
  std::uint16_t thread = 0;  ///< simulated thread/context id
  AccessType type = AccessType::Read;
  Mode mode = Mode::User;

  bool is_ifetch() const { return type == AccessType::InstFetch; }
  bool is_write() const { return type == AccessType::Write; }
};

static_assert(sizeof(Access) <= 16, "Access must stay within one 16-byte slot");
static_assert(offsetof(Access, addr) == 0 && offsetof(Access, thread) == 8 &&
                  offsetof(Access, type) == 10 && offsetof(Access, mode) == 11,
              "Access field layout is load-bearing for trace streaming");
static_assert(std::is_trivially_copyable_v<Access>,
              "bulk append relies on trivially copyable records");

/// Aggregate counts over a trace, split by mode.
struct TraceSummary {
  std::uint64_t total = 0;
  std::uint64_t by_mode[kModeCount] = {0, 0};
  std::uint64_t writes = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t distinct_lines_user = 0;
  std::uint64_t distinct_lines_kernel = 0;

  double kernel_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(by_mode[1]) /
                            static_cast<double>(total);
  }
};

/// In-memory access trace with provenance metadata.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) {
    name_ = std::move(n);
    fingerprint_.clear();
  }

  void reserve(std::size_t n) { accesses_.reserve(n); }
  void push(const Access& a) {
    accesses_.push_back(a);
    fingerprint_.clear();
  }

  /// Bulk append: adopts `batch` wholesale when the trace is empty (no copy
  /// at all), otherwise splices it onto the end in one reallocation-checked
  /// insert. Generators should accumulate into a plain vector and hand it
  /// over here instead of calling push() per record.
  void append(std::vector<Access>&& batch) {
    if (accesses_.empty()) {
      accesses_ = std::move(batch);
    } else {
      accesses_.insert(accesses_.end(), batch.begin(), batch.end());
    }
    batch.clear();
    fingerprint_.clear();
  }

  /// Bulk append from a borrowed chunk (trace streaming / materialize()).
  void append(std::span<const Access> chunk) {
    accesses_.insert(accesses_.end(), chunk.begin(), chunk.end());
    fingerprint_.clear();
  }

  const std::vector<Access>& accesses() const { return accesses_; }
  std::size_t size() const { return accesses_.size(); }
  bool empty() const { return accesses_.empty(); }
  const Access& operator[](std::size_t i) const { return accesses_[i]; }

  /// Full scan computing mode/type mix and distinct-footprint counts.
  TraceSummary summarize() const;

  /// Sanity invariant: every record's mode matches its address-space half.
  /// The generator maintains this by construction; trace files are checked
  /// on load.
  bool modes_consistent_with_addresses() const;

  /// FNV-1a/64 content fingerprint (name, length, then every record
  /// field-wise) — the trace component of every result-store key. Computed
  /// on first call and memoized until the next mutation, so a trace shared
  /// through TraceCache is hashed at most once per process. Safe to call
  /// concurrently on a const Trace: racing first calls each compute the
  /// same value.
  std::uint64_t fingerprint() const;

 private:
  /// fingerprint()'s memo slot. Copies carry the memo; a move leaves the
  /// source without one (its content is gone), so Trace keeps implicit
  /// copy and move members.
  class FingerprintMemo {
   public:
    FingerprintMemo() = default;
    FingerprintMemo(const FingerprintMemo& o) { copy_from(o); }
    FingerprintMemo(FingerprintMemo&& o) noexcept {
      copy_from(o);
      o.clear();
    }
    FingerprintMemo& operator=(const FingerprintMemo& o) {
      copy_from(o);
      return *this;
    }
    FingerprintMemo& operator=(FingerprintMemo&& o) noexcept {
      copy_from(o);
      o.clear();
      return *this;
    }

    std::optional<std::uint64_t> get() const {
      if (!valid_.load(std::memory_order_acquire)) return std::nullopt;
      return value_.load(std::memory_order_relaxed);
    }
    void set(std::uint64_t v) const {
      value_.store(v, std::memory_order_relaxed);
      valid_.store(true, std::memory_order_release);
    }
    // Only mutators clear, and a mutator has the trace to itself, so no
    // ordering is needed — and none is paid per push() of a trace load.
    void clear() { valid_.store(false, std::memory_order_relaxed); }

   private:
    void copy_from(const FingerprintMemo& o) {
      if (const auto v = o.get()) {
        set(*v);
      } else {
        clear();
      }
    }

    mutable std::atomic<std::uint64_t> value_{0};
    mutable std::atomic<bool> valid_{false};
  };

  std::string name_;
  std::vector<Access> accesses_;
  FingerprintMemo fingerprint_;
};

}  // namespace mobcache
