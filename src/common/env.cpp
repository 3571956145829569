#include "common/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace st {

void env_fail(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr, "%s must be %s, got \"%s\"\n", name, expected, value);
  std::exit(2);
}

std::uint64_t parse_u64_or_exit(const char* name, const char* s,
                                std::uint64_t lo, std::uint64_t hi,
                                const char* expected) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || *s == '-' || errno == ERANGE || v < lo ||
      v > hi)
    env_fail(name, s, expected);
  return v;
}

double parse_positive_double_or_exit(const char* name, const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0))
    env_fail(name, s, "a positive number");
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t dflt, std::uint64_t lo,
                      std::uint64_t hi, const char* expected) {
  const char* s = std::getenv(name);
  return s == nullptr ? dflt : parse_u64_or_exit(name, s, lo, hi, expected);
}

double env_positive_double(const char* name, double dflt) {
  const char* s = std::getenv(name);
  return s == nullptr ? dflt : parse_positive_double_or_exit(name, s);
}

bool env_flag01(const char* name, bool dflt) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  if (std::string_view(s) == "1") return true;
  if (std::string_view(s) == "0") return false;
  env_fail(name, s, "0 or 1");
}

bool env_onoff(const char* name, bool dflt) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  const std::string_view v(s);
  if (v == "on" || v == "1") return true;
  if (v == "off" || v == "0") return false;
  env_fail(name, s, "off or on");
}

std::string env_str(const char* name) {
  const char* s = std::getenv(name);
  return s == nullptr ? std::string() : std::string(s);
}

}  // namespace st
