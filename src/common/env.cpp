#include "common/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace mobcache {

namespace {

/// The one digit, overflow and range check behind env_u64 and parse_uint.
/// strtoull accepts leading whitespace, signs and hex prefixes; a config
/// value should accept none of them, so pre-screen for plain digits.
std::optional<std::uint64_t> parse_digits(const char* raw, std::uint64_t min,
                                          std::uint64_t max) {
  if (raw[0] == '\0') return std::nullopt;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  if (errno != 0 || v < min || v > max) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::string range_text(std::uint64_t min, std::uint64_t max) {
  std::string out = "[" + std::to_string(min) + ", ";
  out += max == UINT64_MAX ? std::string("2^64)") : std::to_string(max) + "]";
  return out;
}

[[noreturn]] void reject(const char* name, const char* raw, std::uint64_t min,
                         std::uint64_t max) {
  throw EnvError(std::string(name) + ": expected an integer in " +
                 range_text(min, max) + ", got '" + raw + "'");
}

}  // namespace

std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t min,
                                     std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  if (const auto v = parse_digits(raw, min, max)) return v;
  reject(name, raw, min, max);
}

std::uint64_t env_u64_or(const char* name, std::uint64_t fallback,
                         std::uint64_t min, std::uint64_t max) {
  return env_u64(name, min, max).value_or(fallback);
}

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

std::uint64_t parse_uint(const std::string& text, const char* what,
                         std::uint64_t min, std::uint64_t max) {
  if (const auto v = parse_digits(text.c_str(), min, max)) return *v;
  if (max == UINT64_MAX) {
    std::fprintf(stderr, "%s must be an integer >= %llu, got '%s'\n", what,
                 static_cast<unsigned long long>(min), text.c_str());
  } else {
    std::fprintf(stderr, "%s must be an integer in [%llu, %llu], got '%s'\n",
                 what, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text.c_str());
  }
  std::exit(2);
}

}  // namespace mobcache
