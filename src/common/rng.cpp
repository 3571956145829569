#include "common/rng.hpp"

#include "common/check.hpp"

namespace st {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Xoshiro256ss::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) {
  ST_CHECK(bound != 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256ss::next_range(std::uint64_t lo, std::uint64_t hi) {
  ST_CHECK(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

double Xoshiro256ss::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256ss::chance_pct(unsigned pct) {
  ST_CHECK(pct <= 100);
  return next_below(100) < pct;
}

}  // namespace st
