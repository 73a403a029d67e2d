#include "trace/trace.hpp"

#include <unordered_set>

#include "common/content_hash.hpp"

namespace mobcache {

TraceSummary Trace::summarize() const {
  TraceSummary s;
  std::unordered_set<Addr> user_lines;
  std::unordered_set<Addr> kernel_lines;
  for (const Access& a : accesses_) {
    ++s.total;
    ++s.by_mode[static_cast<int>(a.mode)];
    if (a.is_write()) ++s.writes;
    if (a.is_ifetch()) ++s.ifetches;
    if (a.mode == Mode::User) {
      user_lines.insert(line_addr(a.addr));
    } else {
      kernel_lines.insert(line_addr(a.addr));
    }
  }
  s.distinct_lines_user = user_lines.size();
  s.distinct_lines_kernel = kernel_lines.size();
  return s;
}

bool Trace::modes_consistent_with_addresses() const {
  for (const Access& a : accesses_) {
    if (is_kernel_addr(a.addr) != (a.mode == Mode::Kernel)) return false;
  }
  return true;
}

std::uint64_t Trace::fingerprint() const {
  if (const auto memo = fingerprint_.get()) return *memo;
  // Field-wise, not raw bytes: Access carries 4 padding bytes whose content
  // is unspecified. The fingerprint covers every record, so a trace loaded
  // from disk and a regenerated one key identically iff they really agree.
  ContentHasher h;
  h.mix(name_);
  h.mix(static_cast<std::uint64_t>(accesses_.size()));
  for (const Access& a : accesses_) {
    h.mix(a.addr);
    h.mix(static_cast<std::uint64_t>(a.thread) |
          (static_cast<std::uint64_t>(a.type) << 16) |
          (static_cast<std::uint64_t>(a.mode) << 24));
  }
  fingerprint_.set(h.digest());
  return h.digest();
}

}  // namespace mobcache
