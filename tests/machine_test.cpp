#include <gtest/gtest.h>

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

TEST(Machine, CoreCountValidated) {
  EXPECT_DEATH(Machine m(0), "");
  EXPECT_DEATH(Machine m(kMaxCores + 1), "");
}

}  // namespace
}  // namespace st::sim
