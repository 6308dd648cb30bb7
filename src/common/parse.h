// Checked string-to-number parsing.
//
// The atoi/atof family collapses every error to 0 ("--be=four" silently runs
// zero BE workloads) and std::sto* throws on bad input; both are banned by
// mtat_lint's unsafe-parse rule. These helpers wrap strtol/strtoull/strtod
// with full-string and range validation and return std::nullopt on anything
// that is not exactly one number: no leading or trailing whitespace, no junk.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace mtat {

namespace detail {
/// strto* skip leading whitespace, so " 12" would parse and " -1" would slip
/// past parse_u64's sign check; a number here starts at its first character.
inline bool bad_start(const std::string& s) {
  return s.empty() || std::isspace(static_cast<unsigned char>(s[0]));
}
}  // namespace detail

/// Parse `s` as a base-10 signed integer. The whole string must be consumed;
/// empty strings, leading whitespace, trailing junk ("12x"), and out-of-range
/// values fail.
inline std::optional<long long> parse_i64(const std::string& s) {
  if (detail::bad_start(s)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

/// Parse `s` as a base-10 unsigned integer. Rejects a leading '-' (strtoull
/// would happily wrap it) as well as partial parses and overflow.
inline std::optional<unsigned long long> parse_u64(const std::string& s) {
  if (detail::bad_start(s) || s[0] == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

/// Parse `s` as an int, additionally checking the long long fits.
inline std::optional<int> parse_int(const std::string& s) {
  const auto v = parse_i64(s);
  if (!v || *v < std::numeric_limits<int>::min() || *v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*v);
}

/// Parse `s` as a double. The whole string must be consumed; inf/nan spellings
/// are accepted (strtod semantics), overflow to ±HUGE_VAL fails.
inline std::optional<double> parse_double(const std::string& s) {
  if (detail::bad_start(s)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

}  // namespace mtat
