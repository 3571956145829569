#include <gtest/gtest.h>

#include <random>

#include "sim/machine.hpp"

namespace st::sim {
namespace {

/// Task that records the global order of its steps and their start clocks.
struct TraceTask final : CoreTask {
  TraceTask(std::vector<std::pair<unsigned, Cycle>>* trace, unsigned id,
            Cycle cost, unsigned steps)
      : trace_(trace), id_(id), cost_(cost), remaining_(steps) {}

  Cycle step(Machine& m, CoreId c) override {
    trace_->emplace_back(id_, m.core_clock(c));
    --remaining_;
    return cost_;
  }
  bool done() const override { return remaining_ == 0; }

  std::vector<std::pair<unsigned, Cycle>>* trace_;
  unsigned id_;
  Cycle cost_;
  unsigned remaining_;
};

TEST(Machine, RunsUntilAllTasksDone) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 3));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 10, 2));
  m.run();
  EXPECT_EQ(trace.size(), 5u);
}

TEST(Machine, MinClockCoreRunsFirstTiesByCoreId) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 2));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 3, 4));
  m.run();
  // t=0: core0 (tie, lower id) then core1; t=3,6,9: core1; t=10: core0.
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0], (std::pair<unsigned, Cycle>{0, 0}));
  EXPECT_EQ(trace[1], (std::pair<unsigned, Cycle>{1, 0}));
  EXPECT_EQ(trace[2], (std::pair<unsigned, Cycle>{1, 3}));
  EXPECT_EQ(trace[3], (std::pair<unsigned, Cycle>{1, 6}));
  EXPECT_EQ(trace[4], (std::pair<unsigned, Cycle>{1, 9}));
  EXPECT_EQ(trace[5], (std::pair<unsigned, Cycle>{0, 10}));
}

TEST(Machine, ZeroCycleStepsStillAdvanceTheClock) {
  Machine m(1);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 0, 3));
  const Cycle end = m.run();
  EXPECT_EQ(end, 3u);  // clamped to >= 1 per step
}

TEST(Machine, MaxCyclesStopsEarly) {
  Machine m(1);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 1000));
  m.run(55);
  EXPECT_LE(trace.size(), 7u);
  EXPECT_GE(trace.size(), 5u);
}

TEST(Machine, RunReturnsMaxCoreClock) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 7, 3));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 5, 2));
  EXPECT_EQ(m.run(), 21u);
}

TEST(Machine, LateInstalledTaskStartsAtCurrentTime) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 2));
  m.run();
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 1, 1));
  m.run();
  // Core 1 must not run "in the past" relative to core 0's finish.
  EXPECT_EQ(trace.back().first, 1u);
  EXPECT_GE(trace.back().second, 20u);
}

// ---- parked waits -----------------------------------------------------------

/// Polls a host flag every `period` cycles until it is set or `limit` polls
/// have failed, parking through the polls in between whenever the machine
/// allows it: a poll changes nothing, so the skipped ones are only counted.
struct PollTask final : CoreTask {
  PollTask(const bool* flag, Cycle period, unsigned limit)
      : flag_(flag), period_(period), limit_(limit) {}

  Cycle step(Machine& m, CoreId core) override {
    const Cycle now = m.core_clock(core);
    if (parked_at_ != 0) {
      polls += static_cast<unsigned>((now - parked_at_) / period_);
      parked_at_ = 0;
    }
    ++polls;
    ++steps;
    if (*flag_ || polls == limit_) {
      (*flag_ ? seen_at : gave_up_at) = now;
      done_ = true;
      return 1;
    }
    // Polls up to the limit's would fail the same way; the limit's own poll
    // runs for real.
    const Cycle first = now + period_;
    if (m.park(core, first, period_, limit_ - 1 - polls)) {
      parked_at_ = first;
      ++parks;
    }
    return period_;
  }
  bool done() const override { return done_; }

  const bool* flag_;
  Cycle period_;
  unsigned limit_;
  Cycle parked_at_ = 0;
  bool done_ = false;
  unsigned polls = 0;
  unsigned steps = 0;
  unsigned parks = 0;
  Cycle seen_at = 0;
  Cycle gave_up_at = 0;
};

/// Idles until clock `at`, then sets the flag and wakes `waiter`, as the
/// memory system wakes a core whose watched line changed.
struct SetTask final : CoreTask {
  SetTask(bool* flag, Cycle at, CoreId waiter)
      : flag_(flag), at_(at), waiter_(waiter) {}

  Cycle step(Machine& m, CoreId) override {
    if (!idled_) {
      idled_ = true;
      return at_;
    }
    *flag_ = true;
    m.wake(waiter_);
    done_ = true;
    return 1;
  }
  bool done() const override { return done_; }

  bool* flag_;
  Cycle at_;
  CoreId waiter_;
  bool idled_ = false;
  bool done_ = false;
};

struct PollOutcome {
  unsigned polls, steps, parks;
  Cycle seen_at, gave_up_at, end;
};

/// One poller (period 10, `limit` polls) and, when `set_at` is nonzero, one
/// setter on the other core of a two-core machine.
PollOutcome run_poll(bool fusion, CoreId poller, Cycle set_at,
                     unsigned limit = 1000, Cycle max_cycles = ~Cycle{0}) {
  Machine m(2);
  m.set_step_fusion(fusion);
  bool flag = false;
  auto task = std::make_unique<PollTask>(&flag, 10, limit);
  PollTask* p = task.get();
  m.set_task(poller, std::move(task));
  if (set_at != 0)
    m.set_task(1 - poller, std::make_unique<SetTask>(&flag, set_at, poller));
  const Cycle end = m.run(max_cycles);
  return {p->polls, p->steps, p->parks, p->seen_at, p->gave_up_at, end};
}

void expect_same_as_single_stepping(const PollOutcome& on,
                                    const PollOutcome& off) {
  EXPECT_EQ(off.parks, 0u);
  EXPECT_EQ(off.steps, off.polls);
  EXPECT_EQ(on.polls, off.polls);
  EXPECT_EQ(on.seen_at, off.seen_at);
  EXPECT_EQ(on.gave_up_at, off.gave_up_at);
  EXPECT_EQ(on.end, off.end);
}

TEST(Machine, WakeAtTheSameClockKeepsCoreIdOrder) {
  // Polls land at 0, 10, 20, ...; the flag is set at clock 40. A setter
  // with the lower id steps first at 40, so the poll at 40 sees it.
  const PollOutcome below = run_poll(true, 1, 40);
  EXPECT_EQ(below.seen_at, 40u);
  EXPECT_EQ(below.steps, 2u);  // the parking poll and the woken one
  expect_same_as_single_stepping(below, run_poll(false, 1, 40));
  // A setter with the higher id steps after the poll at 40: seen at 50.
  const PollOutcome above = run_poll(true, 0, 40);
  EXPECT_EQ(above.seen_at, 50u);
  EXPECT_EQ(above.steps, 2u);
  expect_same_as_single_stepping(above, run_poll(false, 0, 40));
}

TEST(Machine, WakeAtTheExactTimeoutSlot) {
  // Five polls: the fifth, at clock 40, is the last. A lower-id setter at
  // 40 re-keys the poller onto the slot it was parked until, and the poll
  // there sees the flag; a higher-id one comes too late.
  const PollOutcome below = run_poll(true, 1, 40, 5);
  EXPECT_EQ(below.seen_at, 40u);
  EXPECT_EQ(below.polls, 5u);
  expect_same_as_single_stepping(below, run_poll(false, 1, 40, 5));
  const PollOutcome above = run_poll(true, 0, 40, 5);
  EXPECT_EQ(above.gave_up_at, 40u);
  EXPECT_EQ(above.steps, 2u);
  expect_same_as_single_stepping(above, run_poll(false, 0, 40, 5));
}

TEST(Machine, ParkStopsAtTheHorizon) {
  // A bounded run polls at 0..50 and stops with the poller's clock at 60,
  // parked or not; the poller never sleeps past max_cycles, so every poll
  // before it is accounted when run() returns.
  for (Cycle horizon : {Cycle{55}, Cycle{60}, Cycle{61}}) {
    const PollOutcome on = run_poll(true, 0, 0, 20, horizon);
    const PollOutcome off = run_poll(false, 0, 0, 20, horizon);
    expect_same_as_single_stepping(on, off);
    EXPECT_EQ(on.polls, horizon <= 60 ? 6u : 7u) << horizon;
    EXPECT_EQ(on.gave_up_at, 0u);
    EXPECT_EQ(on.parks, 1u) << horizon;
  }
  // Resuming a bounded run is the same as running straight through.
  Machine m(1);
  bool flag = false;
  auto task = std::make_unique<PollTask>(&flag, 10, 20);
  PollTask* p = task.get();
  m.set_task(0, std::move(task));
  m.run(55);
  EXPECT_EQ(m.run(), 191u);
  EXPECT_EQ(p->polls, 20u);
  EXPECT_EQ(p->gave_up_at, 190u);
  EXPECT_EQ(p->steps, 4u);
}

/// Always steps the highest-numbered runnable core.
struct LastCoreFirst final : SchedPerturb {
  CoreId pick(const Machine&, const std::vector<CoreId>& runnable) override {
    return runnable.back();
  }
  Cycle delay(CoreId, Cycle) override { return 0; }
};

TEST(Machine, NoParkingWithFusionOffOrPerturbation) {
  EXPECT_EQ(run_poll(false, 1, 0, 30).parks, 0u);
  EXPECT_EQ(run_poll(true, 1, 0, 30).parks, 1u);
  Machine m(2);
  LastCoreFirst perturb;
  m.set_perturb(&perturb);
  bool flag = false;
  auto task = std::make_unique<PollTask>(&flag, 10, 30);
  PollTask* p = task.get();
  m.set_task(1, std::move(task));
  m.set_task(0, std::make_unique<SetTask>(&flag, 40, 1));
  m.run();
  EXPECT_EQ(p->parks, 0u);
  EXPECT_EQ(p->steps, 30u);
  EXPECT_EQ(p->gave_up_at, 290u);
}

// ---- queue order ------------------------------------------------------------

/// At every step, checks that the stepping core holds the smallest
/// (clock, id) over all runnable cores by a linear scan, then makes a random
/// move: a step of random cost, sometimes a park through random polls, and
/// sometimes a wake of another core, which re-keys a core that is not
/// stepping. Small costs make clock ties common.
struct ArgminTask final : CoreTask {
  ArgminTask(std::mt19937_64* rng, const std::vector<ArgminTask*>* all,
             unsigned steps)
      : rng_(rng), all_(all), remaining_(steps) {}

  Cycle step(Machine& m, CoreId core) override {
    CoreId best = core;
    for (CoreId j = 0; j < all_->size(); ++j) {
      if ((*all_)[j]->done()) continue;
      const Cycle cj = m.core_clock(j), cb = m.core_clock(best);
      if (cj < cb || (cj == cb && j < best)) best = j;
    }
    if (best != core) ++wrong_picks;
    --remaining_;
    const Cycle cost = 1 + (*rng_)() % 4;
    const unsigned move = static_cast<unsigned>((*rng_)() % 8);
    if (move == 0)  // on the last step, too: run() drops that park
      parks += m.park(core, m.core_clock(core) + cost, 1 + (*rng_)() % 5,
                      1 + (*rng_)() % 6);
    else if (move == 1)
      m.wake(static_cast<CoreId>((*rng_)() % all_->size()));
    return cost;
  }
  bool done() const override { return remaining_ == 0; }

  std::mt19937_64* rng_;
  const std::vector<ArgminTask*>* all_;
  unsigned remaining_;
  unsigned wrong_picks = 0;
  unsigned parks = 0;
};

TEST(Machine, QueuePicksTheLinearArgmin) {
  for (unsigned cores : {3u, 5u, 16u, 64u}) {
    std::mt19937_64 rng(cores);
    Machine m(cores);
    std::vector<ArgminTask*> all;
    for (CoreId c = 0; c < cores; ++c) {
      auto t = std::make_unique<ArgminTask>(&rng, &all, 50 + rng() % 100);
      all.push_back(t.get());
      m.set_task(c, std::move(t));
    }
    m.run(200);  // a horizon mid-run, then the rest
    m.run();
    unsigned parks = 0;
    for (const ArgminTask* t : all) {
      EXPECT_TRUE(t->done());
      EXPECT_EQ(t->wrong_picks, 0u) << cores << " cores";
      parks += t->parks;
    }
    EXPECT_GT(parks, 0u) << cores << " cores";
    // Every step was its own event: no task reports a local step.
    EXPECT_EQ(m.steps(), m.events());
  }
}

TEST(Machine, CoreCountValidated) {
  EXPECT_DEATH(Machine m(0), "");
  EXPECT_DEATH(Machine m(kMaxCores + 1), "");
}

}  // namespace
}  // namespace st::sim
