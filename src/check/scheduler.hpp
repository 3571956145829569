// Schedule perturbation policies for the correctness checker.
//
// The default simulator schedule is fully deterministic (smallest clock,
// ties by core id), so every configuration explores exactly one
// interleaving. The policies here plug into sim::Machine::set_perturb to
// search *other* interleavings while staying bit-reproducible from
// (mode, seed):
//
//   * kPct    — PCT-style randomized priorities: among runnable cores whose
//     clocks lie within a bounded skew band of the minimum, the highest
//     (seeded, random) priority core steps next; the running core's
//     priority is occasionally demoted so dominance changes over the run.
//     The skew band guarantees progress — a spinning high-priority core
//     eventually drifts out of the band and its victim gets to run.
//   * kJitter — delay injection: the default clock order is kept, but
//     before a step the chosen core's clock may be bumped by a bounded,
//     seeded random delay. Injection can be confined to a cycle window
//     [lo, hi), which is what the failure reducer bisects.
//
// A run is perturbed only by setting RunOptions::sched; stagtm-check's
// flags (--mode, --seed0, --jitter, --period, --window, --depth, --skew)
// are the command-line interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/machine.hpp"

namespace st::check {

enum class SchedMode : std::uint8_t { kNone, kPct, kJitter };

const char* sched_mode_name(SchedMode m);

struct SchedConfig {
  SchedMode mode = SchedMode::kNone;
  std::uint64_t seed = 1;
  sim::Cycle jitter = 64;        // max cycles injected per injection
  std::uint64_t period = 8;      // mean steps between injections
  sim::Cycle window_lo = 0;      // injection window [lo, hi)
  sim::Cycle window_hi = ~sim::Cycle{0};
  unsigned depth = 3;            // pct: demotion probability = depth/65536
  sim::Cycle skew = 4096;        // pct: max clock skew band

  bool enabled() const { return mode != SchedMode::kNone; }

  /// Human/CLI form, e.g. "jitter seed=7 amp=64 period=8 window=0:4096".
  /// "off" when disabled. Stable: reruns of the same config print the same.
  std::string describe() const;
};

/// Builds the perturbation policy for `cfg`; null when cfg.mode == kNone.
/// The returned object must outlive the Machine::run it is installed for.
std::unique_ptr<sim::SchedPerturb> make_perturb(const SchedConfig& cfg);

}  // namespace st::check
