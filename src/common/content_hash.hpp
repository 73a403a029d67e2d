#pragma once
/// \file content_hash.hpp
/// FNV-1a/64 content hashing: the one hash behind result-store keys, record
/// checksums and trace fingerprints.
///
/// Every value produced here is persisted (store keys name record files,
/// checksums guard their payloads), so the arithmetic and every caller's
/// mix() order are part of the on-disk contract.

#include <cstddef>
#include <cstdint>
#include <string>

namespace mobcache {

/// FNV-1a/64 offset basis: the digest of zero bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// Byte-serial FNV-1a/64 of `n` bytes at `data`, continuing from `h`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t h = kFnvOffsetBasis);

/// Composable FNV-1a/64 accumulator used for all content keys. Field order
/// is significant; every mix() site is part of the key contract.
class ContentHasher {
 public:
  ContentHasher& mix(std::uint64_t v);
  ContentHasher& mix(double v);  ///< bit pattern, so -0.0 != 0.0
  ContentHasher& mix(const std::string& s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

}  // namespace mobcache
