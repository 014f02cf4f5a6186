// Typed environment-variable lookup used by benches and examples so runs
// can be parameterized without recompiling (e.g. PARSVD_RANKS=8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace parsvd::env {

/// Raw lookup; nullopt when unset.
std::optional<std::string> get(const std::string& name);

// The typed getters return `fallback` only when the variable is unset; a
// value that does not parse whole throws ConfigError naming the variable
// and the value, so a typo never silently runs the default.

/// Parse as int64 (base 10, no trailing characters).
std::int64_t get_int(const std::string& name, std::int64_t fallback);

/// As above, and a set value outside [lo, hi] throws ConfigError naming
/// the variable, the value and the range — never a silent clamp. The
/// fallback is returned as given.
std::int64_t get_int(const std::string& name, std::int64_t fallback,
                     std::int64_t lo, std::int64_t hi);

/// Parse as double (no trailing characters).
double get_double(const std::string& name, double fallback);

/// "1/true/yes/on" → true, "0/false/no/off" → false (case-insensitive).
bool get_bool(const std::string& name, bool fallback);

/// String with fallback.
std::string get_string(const std::string& name, const std::string& fallback);

}  // namespace parsvd::env
