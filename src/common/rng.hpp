// Deterministic pseudo-random streams for workloads and the simulator.
//
// Every source of randomness in the repository flows through Xoshiro256ss so
// that a (seed, thread-id) pair fully determines an experiment.  std::mt19937
// is avoided because its state size and seeding rules differ across standard
// library implementations; xoshiro256** is small, fast, and specified
// bit-exactly.
#pragma once

#include <cstdint>

namespace st {

/// splitmix64 step; used to expand a single seed into xoshiro state and as a
/// general-purpose 64-bit mixer. Inline, with mix64: the directory, the
/// advisory-lock and orec tables and the STM Bloom filters hash with them
/// on every probe.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless 64-bit hash (finalizer of splitmix64).
inline std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next();

  /// Uniform value in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// True with probability pct/100.
  bool chance_pct(unsigned pct);

 private:
  std::uint64_t s_[4];
};

}  // namespace st
