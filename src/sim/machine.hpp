// Deterministic discrete-event multicore scheduler.
//
// Each simulated core owns a logical clock and a CoreTask (a resumable state
// machine). The machine repeatedly advances the runnable core with the
// smallest clock (ties broken by core id), so a given configuration and seed
// always produces a bit-identical execution, independent of the host.
//
// With step fusion on, a popped core whose next step is local (touches only
// its own private state) runs ahead to its next synchronizing step in one
// scheduler event, then is requeued at its new clock. Synchronizing steps
// still execute in exactly the smallest-(clock, id) order, so every
// simulated result is bit-identical to single-stepping; see DESIGN.md §13
// for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {
class TraceSink;
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
/// A step may retire more than one instruction (a fused run), but it must
/// consume no more than Machine::fuse_budget() cycles beyond its first
/// instruction's start. The budget exceeds 1 only for local steps (see
/// next_step_local), whose work no other core can observe.
class CoreTask {
 public:
  virtual ~CoreTask() = default;
  virtual Cycle step(Machine& m, CoreId core) = 0;
  virtual bool done() const = 0;

  /// True when the task's *next* step() call is guaranteed to touch only
  /// this core's private state — no shared memory system, directory,
  /// advisory locks, tracing, RNG, or any other cross-core channel — and
  /// to consume at most fuse_budget() cycles. With step fusion on, run()
  /// steps such a core repeatedly (run-ahead) until its next step is a
  /// synchronizing one; synchronizing steps execute one at a time in
  /// (clock, id) order. The default (false) classifies every step as
  /// synchronizing, which is always safe: the task then single-steps.
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
  /// core may consume in this step. Always >= 1. During run-ahead it is
  /// the distance to max_cycles (a local step is unobservable by other
  /// cores, so only the run's horizon bounds it); every other step gets 1.
  Cycle fuse_budget() const { return fuse_budget_; }

  /// True while run() is stepping a core through local steps (run-ahead).
  bool in_run_ahead() const { return in_run_ahead_; }

  /// Disables (or re-enables) run-ahead: with fusion off, fuse_budget() is
  /// pinned to 1 and every step retires at most one instruction — the
  /// single-stepping reference. On by default.
  void set_step_fusion(bool on) { fusion_ = on; }
  bool step_fusion() const { return fusion_; }

  /// Optional event sink (see obs/trace.hpp): the scheduler stamps a
  /// core_done event when a task finishes, giving exported timelines an
  /// end marker per core. Null (the default) means no tracing.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Installs (or clears, with nullptr) the schedule-perturbation hook.
  /// The hook must outlive every subsequent run() call. While a hook is
  /// installed, step fusion is suppressed (fuse_budget() stays 1): the
  /// run-ahead argument assumes smallest-(clock, id) pop order.
  void set_perturb(SchedPerturb* p) { perturb_ = p; }
  SchedPerturb* perturb() const { return perturb_; }

 private:
  Cycle run_perturbed(Cycle max_cycles);

  struct Core {
    Cycle clock = 0;
    std::unique_ptr<CoreTask> task;
  };
  std::vector<Core> cores_;
  Cycle fuse_budget_ = 1;
  bool fusion_ = true;
  bool in_run_ahead_ = false;
  obs::TraceSink* trace_ = nullptr;
  SchedPerturb* perturb_ = nullptr;
};

}  // namespace st::sim
