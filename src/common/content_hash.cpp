#include "common/content_hash.hpp"

#include <cstring>

namespace mobcache {

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t h) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

ContentHasher& ContentHasher::mix(std::uint64_t v) {
  unsigned char bytes[8];
  std::memcpy(bytes, &v, sizeof bytes);
  h_ = fnv1a64(bytes, sizeof bytes, h_);
  return *this;
}

ContentHasher& ContentHasher::mix(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v, "binary64 expected");
  std::memcpy(&bits, &v, sizeof bits);
  return mix(bits);
}

ContentHasher& ContentHasher::mix(const std::string& s) {
  // Length first, so ("ab","c") never collides with ("a","bc").
  mix(static_cast<std::uint64_t>(s.size()));
  h_ = fnv1a64(s.data(), s.size(), h_);
  return *this;
}

}  // namespace mobcache
