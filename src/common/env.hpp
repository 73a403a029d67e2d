#pragma once
/// \file env.hpp
/// Checked parsing of MOBCACHE_* environment variables.
///
/// The env knobs (MOBCACHE_JOBS, MOBCACHE_TRACE_LEN, ...) used to be parsed
/// ad hoc with strtoul and friends, which silently misread garbage
/// ("12abc" -> 12), negatives ("-1" -> huge unsigned), and overflow. Every
/// knob now goes through one parser that either yields a validated value or
/// throws EnvError naming the variable, the offending text, and the accepted
/// range — a typo in a sweep script fails loudly instead of quietly running
/// the wrong experiment.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace mobcache {

/// Thrown for unparsable or out-of-range environment values. The message is
/// self-contained ("MOBCACHE_JOBS: expected an integer in [1, 65536], got
/// 'abc'") so an uncaught escape still diagnoses itself.
class EnvError : public std::runtime_error {
 public:
  explicit EnvError(const std::string& what) : std::runtime_error(what) {}
};

/// Reads `name` as an unsigned integer in [min, max]. Unset (or empty)
/// returns nullopt; anything else non-conforming — trailing junk, a sign, a
/// value outside the range, overflow — throws EnvError.
std::optional<std::uint64_t> env_u64(const char* name,
                                     std::uint64_t min = 0,
                                     std::uint64_t max = UINT64_MAX);

/// env_u64 with a fallback for the unset case.
std::uint64_t env_u64_or(const char* name, std::uint64_t fallback,
                         std::uint64_t min = 0,
                         std::uint64_t max = UINT64_MAX);

/// Reads `name` as a string; unset or empty returns nullopt.
std::optional<std::string> env_string(const char* name);

/// Command-line twin of env_u64: parses `text` as an unsigned integer in
/// [min, max] under the same whole-string check. Anything else is a usage
/// error naming the expected value — "WHAT must be an integer >= MIN, got
/// 'TEXT'" (or "in [MIN, MAX]") on stderr — and exits with status 2, so
/// `12abc` never silently runs as 12.
std::uint64_t parse_uint(const std::string& text, const char* what,
                         std::uint64_t min = 0,
                         std::uint64_t max = UINT64_MAX);

}  // namespace mobcache
