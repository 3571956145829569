#include "check/scheduler.hpp"

#include <cstdio>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace st::check {

using sim::CoreId;
using sim::Cycle;

const char* sched_mode_name(SchedMode m) {
  switch (m) {
    case SchedMode::kNone: return "off";
    case SchedMode::kPct: return "pct";
    case SchedMode::kJitter: return "jitter";
  }
  return "?";
}

std::string SchedConfig::describe() const {
  if (!enabled()) return "off";
  char buf[160];
  if (mode == SchedMode::kJitter) {
    if (window_hi == ~Cycle{0})
      std::snprintf(buf, sizeof buf, "jitter seed=%llu amp=%llu period=%llu",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(jitter),
                    static_cast<unsigned long long>(period));
    else
      std::snprintf(buf, sizeof buf,
                    "jitter seed=%llu amp=%llu period=%llu window=%llu:%llu",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(jitter),
                    static_cast<unsigned long long>(period),
                    static_cast<unsigned long long>(window_lo),
                    static_cast<unsigned long long>(window_hi));
  } else {
    std::snprintf(buf, sizeof buf, "pct seed=%llu depth=%u skew=%llu",
                  static_cast<unsigned long long>(seed), depth,
                  static_cast<unsigned long long>(skew));
  }
  return buf;
}

namespace {

/// Keeps the default smallest-(clock, id) order but injects bounded random
/// delays. Both random draws happen on every step regardless of the window,
/// so narrowing the window does not shift the random stream — the property
/// the reducer's window bisection relies on.
class JitterPerturb final : public sim::SchedPerturb {
 public:
  explicit JitterPerturb(const SchedConfig& cfg)
      : cfg_(cfg), rng_(mix64(cfg.seed) ^ 0x5EDC0FFEEull) {}

  CoreId pick(const sim::Machine& m,
              const std::vector<CoreId>& runnable) override {
    CoreId best = runnable.front();
    Cycle best_clk = m.core_clock(best);
    for (CoreId c : runnable) {
      const Cycle clk = m.core_clock(c);
      if (clk < best_clk) {
        best = c;
        best_clk = clk;
      }
    }
    return best;
  }

  Cycle delay(CoreId, Cycle clock) override {
    const bool fire = rng_.next_below(cfg_.period) == 0;
    const Cycle amount = 1 + rng_.next_below(cfg_.jitter);
    if (!fire || clock < cfg_.window_lo || clock >= cfg_.window_hi) return 0;
    return amount;
  }

 private:
  SchedConfig cfg_;
  Xoshiro256ss rng_;
};

/// PCT-style randomized priorities over a bounded clock-skew band. Only
/// cores within `skew` cycles of the minimum runnable clock are eligible,
/// which (a) bounds how unphysical the explored interleavings get, and
/// (b) guarantees progress: a high-priority core spinning on a lock held
/// by a low-priority core burns cycles until it leaves the band and the
/// holder (always eligible at the minimum clock) runs.
class PctPerturb final : public sim::SchedPerturb {
 public:
  explicit PctPerturb(const SchedConfig& cfg)
      : cfg_(cfg), rng_(mix64(cfg.seed) ^ 0x9C7A11ull) {}

  CoreId pick(const sim::Machine& m,
              const std::vector<CoreId>& runnable) override {
    if (prio_.empty())
      for (unsigned i = 0; i < m.cores(); ++i) prio_.push_back(rng_.next());
    Cycle min_clk = m.core_clock(runnable.front());
    for (CoreId c : runnable)
      if (m.core_clock(c) < min_clk) min_clk = m.core_clock(c);
    CoreId best = runnable.front();
    bool found = false;
    for (CoreId c : runnable) {
      if (m.core_clock(c) - min_clk > cfg_.skew) continue;
      if (!found || prio_[c] > prio_[best]) {
        best = c;
        found = true;
      }
    }
    // Priority change point: demote the chosen core below everyone else so
    // a different core dominates from here on.
    if (cfg_.depth > 0 && rng_.next_below(65536) < cfg_.depth)
      prio_[best] = next_low_--;
    return best;
  }

  Cycle delay(CoreId, Cycle) override { return 0; }

 private:
  SchedConfig cfg_;
  Xoshiro256ss rng_;
  std::vector<std::uint64_t> prio_;
  // Demoted priorities count down from below any initial random priority's
  // realistic minimum, so each demotion lands strictly below all others.
  std::uint64_t next_low_ = 1u << 20;
};

}  // namespace

std::unique_ptr<sim::SchedPerturb> make_perturb(const SchedConfig& cfg) {
  switch (cfg.mode) {
    case SchedMode::kNone: return nullptr;
    case SchedMode::kPct: return std::make_unique<PctPerturb>(cfg);
    case SchedMode::kJitter: return std::make_unique<JitterPerturb>(cfg);
  }
  return nullptr;
}

}  // namespace st::check
