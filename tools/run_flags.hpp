// Command-line flags shared by stagtm and stagtm-check.
//
// Values are parsed with the strict parsers behind the STAGTM_* knobs
// (common/env.hpp): a malformed or out-of-range value exits 2 with a message
// naming the flag, never a silently different run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "common/env.hpp"
#include "workloads/harness.hpp"

namespace st::tools {

/// Walks argv[first..argc): next() moves to the next flag, the value
/// readers consume its argument.
class FlagReader {
 public:
  FlagReader(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), i_(first - 1) {}

  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  const std::string& flag() const { return flag_; }

  /// The current flag's argument; exits 2 when it is missing.
  const char* value() {
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "%s needs a value\n", flag_.c_str());
      std::exit(2);
    }
    return argv_[++i_];
  }
  std::uint64_t u64(std::uint64_t lo, std::uint64_t hi) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "an integer in [%llu,%llu]",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return parse_u64_or_exit(flag_.c_str(), value(), lo, hi, expected);
  }
  unsigned u32(unsigned lo, unsigned hi) {
    return static_cast<unsigned>(u64(lo, hi));
  }
  double positive() {
    return parse_positive_double_or_exit(flag_.c_str(), value());
  }

 private:
  int argc_;
  char** argv_;
  int i_;
  std::string flag_;
};

struct SchemeFlag {
  const char* name;
  runtime::Scheme scheme;
};
inline constexpr SchemeFlag kSchemeFlags[] = {
    {"htm", runtime::Scheme::kBaseline},
    {"addronly", runtime::Scheme::kAddrOnly},
    {"staggered", runtime::Scheme::kStaggered},
    {"staggered-sw", runtime::Scheme::kStaggeredSW},
};

/// The --scheme spelling of `s`.
inline const char* scheme_flag(runtime::Scheme s) {
  for (const SchemeFlag& f : kSchemeFlags)
    if (f.scheme == s) return f.name;
  return "?";
}

/// Applies the current flag to `o` if it is one of the run flags both tools
/// take (--scheme --threads --scale --seed --max-retries --lazy); false when
/// it is not.
inline bool apply_run_flag(FlagReader& f, workloads::RunOptions* o) {
  const std::string& a = f.flag();
  if (a == "--lazy") {
    o->lazy_htm = true;
  } else if (a == "--scheme") {
    const char* v = f.value();
    const auto* it = std::begin(kSchemeFlags);
    while (it != std::end(kSchemeFlags) && v != std::string(it->name)) ++it;
    if (it == std::end(kSchemeFlags))
      env_fail("--scheme", v, "htm, addronly, staggered or staggered-sw");
    o->scheme = it->scheme;
  } else if (a == "--threads") {
    o->threads = f.u32(1, sim::kMaxCores);
  } else if (a == "--scale") {
    o->ops_scale = f.positive();
  } else if (a == "--seed") {
    o->seed = f.u64(0, ~std::uint64_t{0});
  } else if (a == "--max-retries") {
    o->max_retries = f.u32(0, 100000);
  } else {
    return false;
  }
  return true;
}

}  // namespace st::tools
