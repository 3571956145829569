// Deterministic discrete-event multicore scheduler.
//
// Each simulated core owns a logical clock and a CoreTask (a resumable state
// machine). The machine repeatedly advances the runnable core with the
// smallest clock (ties broken by core id), so a given configuration and seed
// always produces a bit-identical execution, independent of the host.
//
// With step fusion on, one scheduler event is the popped core's next step
// plus every local step (touching only its own private state) that follows
// it: the core runs ahead to its next synchronizing step, then is requeued
// at its new clock. Only the first instruction of a step may synchronize.
// A core polling a lock may instead park through its identical polls and
// be woken exactly when a poll could first see something different.
// Synchronizing instructions still execute in exactly the smallest-(clock,
// id) order, so every simulated result is bit-identical to single-stepping;
// see DESIGN.md §13 for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {
class Observer;
}

namespace st::sim {

class Machine;

/// Schedule-perturbation hook for correctness checking (implementations in
/// src/check/scheduler.hpp). When installed, Machine::run() switches from
/// the default smallest-(clock, id) pop to a hook-driven loop: the hook
/// chooses which runnable core steps next and may inject bounded idle
/// delays before a step. Implementations must be deterministic functions of
/// their seed so a perturbed execution is reproducible bit-for-bit. The
/// default path (no hook) is untouched.
class SchedPerturb {
 public:
  virtual ~SchedPerturb() = default;

  /// Chooses the next core to step. `runnable` is non-empty and sorted by
  /// core id; every listed core has a live task. Must return an element of
  /// `runnable`. The default schedule would pick the smallest (clock, id).
  virtual CoreId pick(const Machine& m, const std::vector<CoreId>& runnable) = 0;

  /// Extra idle cycles injected before the chosen core's step (0 = none).
  /// Called once per step, after pick(), with the core's current clock.
  virtual Cycle delay(CoreId core, Cycle clock) = 0;
};

/// A resumable unit of work bound to one core. step() performs a bounded
/// amount of work and returns the number of cycles it consumed (>= 1).
/// A step may retire more than one instruction (a fused run), but only its
/// first instruction may touch state another core can observe (run() runs
/// the step at that instruction's (clock, id) turn), and every later one
/// must start within Machine::fuse_budget() cycles of the step's start.
class CoreTask {
 public:
  virtual ~CoreTask() = default;
  virtual Cycle step(Machine& m, CoreId core) = 0;
  virtual bool done() const = 0;

  /// True when the task's *next* step() call is guaranteed to touch only
  /// this core's private state — no shared memory system, directory,
  /// advisory locks, tracing, RNG, or any other cross-core channel — and
  /// to consume at most fuse_budget() cycles. With step fusion on, run()
  /// asks once after each step of an event (never at the pop) and steps
  /// such a core on (run-ahead) until its next step is a synchronizing
  /// one, which starts the core's next event in (clock, id) order. The
  /// default (false) classifies every step as synchronizing, which is
  /// always safe: each event is then one step.
  virtual bool next_step_local(const Machine& m, CoreId core) const {
    (void)m;
    (void)core;
    return false;
  }
};

class Machine {
 public:
  explicit Machine(unsigned cores);

  unsigned cores() const { return static_cast<unsigned>(cores_.size()); }

  /// Installs the task for `core` and resets that core's clock to the
  /// current global time (so late-installed tasks do not run in the past).
  void set_task(CoreId core, std::unique_ptr<CoreTask> task);

  /// Runs until every task reports done() or `max_cycles` of global time
  /// elapse. Returns the final global time (max over core clocks that ran).
  Cycle run(Cycle max_cycles = ~Cycle{0});

  Cycle core_clock(CoreId core) const { return cores_[core].clock; }

  /// Scheduler events since construction: one per pop of a core, whether
  /// the event ran one step or a step and its local tail. Host-side only;
  /// it depends on step fusion, never on a simulated result.
  std::uint64_t events() const { return events_; }

  /// CoreTask::step calls since construction (>= events()): an event's
  /// first step plus its local tail. Host-side like events().
  std::uint64_t steps() const { return steps_; }

  /// True when every installed task reports done() (a bounded run() that
  /// stopped at max_cycles leaves this false).
  bool all_done() const {
    for (const auto& c : cores_)
      if (c.task && !c.task->done()) return false;
    return true;
  }

  /// Global time: the minimum clock over still-running cores, or the max
  /// over all cores once everything finished.
  Cycle now() const;

  /// Valid during a CoreTask::step() call: the number of cycles the stepping
  /// core may consume in this step. Always >= 1. With fusion on it is the
  /// distance to max_cycles: everything after a step's first instruction
  /// is unobservable by other cores, so only the run's horizon bounds it.
  /// With fusion off, or under a perturbation hook, it is 1.
  Cycle fuse_budget() const { return fuse_budget_; }

  /// True while run() is stepping a core through the local steps after an
  /// event's first step (run-ahead).
  bool in_run_ahead() const { return in_run_ahead_; }

  /// Parks the stepping core `core` through `polls` identical polls, the
  /// first at clock `first` (where the current step ends) and the rest
  /// `period` apart: the core next steps at first + polls * period, or
  /// earlier if wake() is called. Call only from `core`'s own step. Returns
  /// false, and nothing changes, when parking is off (fusion off, a
  /// perturbation hook, or outside run()) or when the clamp to run()'s
  /// max_cycles leaves no poll to skip.
  bool park(CoreId core, Cycle first, Cycle period, Cycle polls);

  /// Ends `core`'s park (no-op unless parked): it next steps at the first
  /// of its poll slots that comes after the current event in (clock, id)
  /// order, so a poll at that slot sees what the current step changed.
  void wake(CoreId core);

  /// Disables (or re-enables) run-ahead and parking: with fusion off,
  /// fuse_budget() is pinned to 1, every step retires at most one
  /// instruction and every poll is its own step — the single-stepping
  /// reference. On by default.
  void set_step_fusion(bool on) { fusion_ = on; }

  /// Optional observer (obs/observer.hpp): the scheduler records core_done
  /// when a task finishes, giving exported timelines an end marker per
  /// core. Null (the default) means no observer.
  void set_observer(obs::Observer* o) { obs_ = o; }

  /// Installs (or clears, with nullptr) the schedule-perturbation hook.
  /// The hook must outlive every subsequent run() call. While a hook is
  /// installed, step fusion is suppressed (fuse_budget() stays 1): the
  /// run-ahead argument assumes smallest-(clock, id) pop order.
  void set_perturb(SchedPerturb* p) { perturb_ = p; }
  SchedPerturb* perturb() const { return perturb_; }

 private:
  Cycle run_perturbed(Cycle max_cycles);

  static constexpr CoreId kNoCore = ~CoreId{0};

  struct Core {
    Cycle clock = 0;  // while parked: the slot the core steps at next
    std::unique_ptr<CoreTask> task;
    Cycle park_first = 0;   // first skipped poll slot
    Cycle park_period = 0;  // 0: not parked
  };
  std::vector<Core> cores_;
  // run()'s queue: a tournament tree with one (clock, id) key per core.
  // Leaf i (node leaves_ + i) holds core i's key (kIdle once its task is
  // done, and on the padding leaves); node j < leaves_ holds the smaller
  // (key, id) of its two children, so node 1 names the next core to step.
  // rekey() replays one leaf-to-root path.
  static constexpr Cycle kIdle = ~Cycle{0};
  struct Node {
    Cycle key;
    CoreId id;
  };
  std::vector<Node> node_;
  unsigned leaves_ = 1;
  void rekey(CoreId core, Cycle key);
  CoreId stepping_ = kNoCore;  // the core run() is stepping, if any
  Cycle horizon_ = 0;          // run()'s max_cycles
  // The wake slot of a park the stepping core requested (0: none); it takes
  // effect when the step returns.
  Cycle park_until_ = 0;
  Cycle fuse_budget_ = 1;
  std::uint64_t events_ = 0;
  std::uint64_t steps_ = 0;
  bool fusion_ = true;
  bool in_run_ahead_ = false;
  obs::Observer* obs_ = nullptr;
  SchedPerturb* perturb_ = nullptr;
};

}  // namespace st::sim
