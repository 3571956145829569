// Deterministic discrete-event multicore scheduler.
//
// Each simulated core owns a logical clock and a CoreTask (a resumable state
// machine). The machine repeatedly advances the runnable core with the
// smallest clock (ties broken by core id), so a given configuration and seed
// always produces a bit-identical execution, independent of the host.
//
// With host_threads > 1 the machine runs the same execution on a pool of
// host worker threads (run_parallel below): cores alternate between
// parallel lookahead windows, in which each worker advances the cores it
// owns through provably window-local steps, and a serial drain on the main
// thread, which pops synchronizing steps in exactly the serial heap's
// smallest-(clock, id) order. The interleaving — and therefore every
// simulated result — is bit-identical to host_threads == 1 by
// construction; see DESIGN.md §13 for the safety argument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
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
/// instruction's start — that is the window within which no other core has
/// a scheduler event, so fusing inside it cannot change the interleaving.
class CoreTask {
 public:
  virtual ~CoreTask() = default;
  virtual Cycle step(Machine& m, CoreId core) = 0;
  virtual bool done() const = 0;

  /// True when the task's *next* step() call is guaranteed to touch only
  /// this core's private state — no shared memory system, directory,
  /// advisory locks, tracing, RNG, or any other cross-core channel — and
  /// to consume at most fuse_budget() cycles. The parallel engine runs
  /// such steps concurrently inside a lookahead window; everything else is
  /// a synchronizing step executed serially in (clock, id) order. The
  /// default (false) classifies every step as synchronizing, which is
  /// always safe: the engine then degrades to an exact serial drain.
  virtual bool next_step_local(const Machine& m, CoreId core) const {
    (void)m;
    (void)core;
    return false;
  }

  /// Monotone count of instructions this task has retired so far. The
  /// parallel engine differences it around step() calls to weight the
  /// window/drain split by retired work instead of step-call count: a
  /// drain step retires at most one instruction (fuse budget 1) while a
  /// window step retires a whole fused run, so step-call counts alone
  /// overstate the serial section. Host-side observability only; the
  /// default (always 0) simply yields zero work-weighted counters.
  virtual std::uint64_t instrs_retired() const { return 0; }
};

/// Host-side statistics of one parallel run (run_parallel). Purely
/// observational: none of this feeds back into simulated results, and it is
/// reported outside the byte-compared registry metrics (obs::metrics).
struct ParStats {
  /// Parallel lookahead windows executed (phases between serial drains).
  std::uint64_t windows = 0;
  /// Windows executed inline on the main thread because fewer cores were
  /// window-local than there are workers (the barrier handoff would cost
  /// more than the steps). Subset of `windows`.
  std::uint64_t inline_windows = 0;
  /// Core-steps retired inside windows (worker-sharded or inline).
  std::uint64_t window_steps = 0;
  /// Synchronizing steps executed serially by the drain.
  std::uint64_t drain_steps = 0;
  /// Instructions retired inside windows (CoreTask::instrs_retired deltas).
  /// The instruction-weighted window fraction window_instrs /
  /// (window_instrs + drain_instrs) is the honest Amdahl proxy: each drain
  /// step retires at most one instruction while a window step retires a
  /// whole fused run, so the step-call split undercounts window work.
  std::uint64_t window_instrs = 0;
  /// Instructions retired by serial drain steps. Drain steps that retire
  /// zero instructions (begin/commit boundaries, lock spins, backoff,
  /// think-time dispatch) count toward drain_steps but not here.
  std::uint64_t drain_instrs = 0;
  /// Window-local cores participating per window (the fan-out available to
  /// the worker pool).
  Log2Hist window_cores;
  /// Per-worker nanoseconds spent blocked at the window barriers (waiting
  /// for the drain to finish or for sibling workers to reach the edge).
  std::vector<std::uint64_t> barrier_wait_ns;
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

  /// Adds idle time to a core (e.g., modeling an OS-level sleep).
  void advance_clock(CoreId core, Cycle cycles) { cores_[core].clock += cycles; }

  /// Valid during a CoreTask::step() call: the number of cycles the stepping
  /// core may consume in this step while still being popped before every
  /// other core's next event (ties broken by core id, exactly as run()
  /// breaks them). Always >= 1. A task that consumes at most this many
  /// cycles per step produces a bit-identical execution to a task that
  /// single-steps, because no other core can observe the difference.
  /// Inside a parallel lookahead window the budget is per host thread (the
  /// distance from the stepping core's clock to the window edge).
  Cycle fuse_budget() const {
    return in_parallel_phase_ ? tls_fuse_budget() : fuse_budget_;
  }

  /// Number of host worker threads sharding run(). 1 (the default) is the
  /// serial event loop; N > 1 runs the windowed parallel engine, which is
  /// bit-identical by construction. Perturbed runs (set_perturb) always
  /// take the serial path regardless of this setting.
  void set_host_threads(unsigned n);
  unsigned host_threads() const { return host_threads_; }

  /// STAGTM_THREADS: host worker threads per machine, in [1,256]; unset
  /// defaults to 1 (serial). Read afresh per call, never latched.
  static unsigned default_host_threads();

  /// True while worker threads are inside a parallel lookahead window
  /// (between the window-start and window-end barriers of run_parallel).
  bool in_parallel_phase() const { return in_parallel_phase_; }

  /// Host-side parallel-engine statistics, accumulated across run() calls.
  const ParStats& par_stats() const { return par_; }

  /// Disables (or re-enables) multi-instruction fusion hints: with fusion
  /// off, fuse_budget() is pinned to 1 and every step retires at most one
  /// instruction. On by default.
  void set_step_fusion(bool on) { fusion_ = on; }
  bool step_fusion() const { return fusion_; }

  /// Optional event sink (see obs/trace.hpp): the scheduler stamps a
  /// core_done event when a task finishes, giving exported timelines an
  /// end marker per core. Null (the default) means no tracing.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Installs (or clears, with nullptr) the schedule-perturbation hook.
  /// The hook must outlive every subsequent run() call. While a hook is
  /// installed, step fusion is suppressed (fuse_budget() stays 1): the
  /// fusion window proof assumes smallest-(clock, id) pop order.
  void set_perturb(SchedPerturb* p) { perturb_ = p; }
  SchedPerturb* perturb() const { return perturb_; }

 private:
  Cycle run_perturbed(Cycle max_cycles);
  Cycle run_parallel(Cycle max_cycles);

  /// The calling host thread's window budget (set by the worker loop before
  /// each step inside a parallel phase).
  static Cycle& tls_fuse_budget();

  struct Core {
    Cycle clock = 0;
    std::unique_ptr<CoreTask> task;
  };
  std::vector<Core> cores_;
  Cycle fuse_budget_ = 1;
  bool fusion_ = true;
  unsigned host_threads_ = 1;
  // Written by the main thread strictly before the window-start barrier and
  // after the window-end barrier, so workers read it race-free.
  bool in_parallel_phase_ = false;
  ParStats par_;
  obs::TraceSink* trace_ = nullptr;
  SchedPerturb* perturb_ = nullptr;
};

}  // namespace st::sim
