// Strict environment-knob parsing, shared by every STAGTM_* consumer.
//
// All knobs follow the same contract (established in the PR that added the
// experiment runner): unset means "use the default", a well-formed value is
// applied, and anything else terminates the process with exit code 2 and a
// message naming the variable — a typo must never silently run the wrong
// experiment.
#pragma once

#include <cstdint>
#include <string>

namespace st {

/// Prints "<name> must be <expected>, got "<value>"" to stderr and exits 2.
[[noreturn]] void env_fail(const char* name, const char* value,
                           const char* expected);

/// Unsigned integer knob in [lo, hi]; `expected` names the range in the
/// diagnostic (e.g. "an integer in [1,256]").
std::uint64_t env_u64(const char* name, std::uint64_t dflt, std::uint64_t lo,
                      std::uint64_t hi, const char* expected);

/// Strictly positive floating-point knob.
double env_positive_double(const char* name, double dflt);

/// The parsers behind env_u64 / env_positive_double, for values that come
/// from elsewhere (command-line flags): `value` must be present, and `name`
/// is what the exit-2 diagnostic names.
std::uint64_t parse_u64_or_exit(const char* name, const char* value,
                                std::uint64_t lo, std::uint64_t hi,
                                const char* expected);
double parse_positive_double_or_exit(const char* name, const char* value);

/// Boolean knob: unset -> dflt, "1" -> true, "0" -> false, else exit 2.
bool env_flag01(const char* name, bool dflt);

/// Boolean knob with word spellings: unset -> dflt, "on"/"1" -> true,
/// "off"/"0" -> false, else exit 2.
bool env_onoff(const char* name, bool dflt);

/// String knob: unset or empty -> "".
std::string env_str(const char* name);

}  // namespace st
