#include "support/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "support/error.hpp"

namespace parsvd::env {

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* expected) {
  throw ConfigError(name + "='" + value + "' is not " + expected);
}

}  // namespace

std::optional<std::string> get(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::int64_t get_int(const std::string& name, std::int64_t fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    reject(name, *v, "an integer");
  }
  return static_cast<std::int64_t>(parsed);
}

std::int64_t get_int(const std::string& name, std::int64_t fallback,
                     std::int64_t lo, std::int64_t hi) {
  if (!get(name)) return fallback;
  const std::int64_t v = get_int(name, fallback);
  if (v < lo || v > hi) {
    throw ConfigError(name + "=" + std::to_string(v) + " is outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

double get_double(const std::string& name, double fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') reject(name, *v, "a number");
  return parsed;
}

bool get_bool(const std::string& name, bool fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") return false;
  reject(name, *v, "a boolean (1/0, true/false, yes/no, on/off)");
}

std::string get_string(const std::string& name, const std::string& fallback) {
  const auto v = get(name);
  return v ? *v : fallback;
}

}  // namespace parsvd::env
