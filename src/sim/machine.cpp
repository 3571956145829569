#include "sim/machine.hpp"

#include <queue>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace st::sim {

Machine::Machine(unsigned cores) {
  ST_CHECK(cores >= 1 && cores <= kMaxCores);
  cores_.resize(cores);
}

void Machine::set_task(CoreId core, std::unique_ptr<CoreTask> task) {
  ST_CHECK(core < cores_.size());
  // Capture the time before installing: the new task must not make itself
  // the "minimum running clock" and start in the past.
  const Cycle start = now();
  cores_[core].task = std::move(task);
  cores_[core].clock = start;
}

Cycle Machine::now() const {
  Cycle min_running = ~Cycle{0};
  Cycle max_any = 0;
  for (const auto& c : cores_) {
    if (c.clock > max_any) max_any = c.clock;
    if (c.task && !c.task->done() && c.clock < min_running)
      min_running = c.clock;
  }
  return min_running == ~Cycle{0} ? max_any : min_running;
}

Cycle Machine::run(Cycle max_cycles) {
  // A perturbation hook forces single-stepping: the hook picks cores in
  // arbitrary order, and the run-ahead argument only holds for
  // smallest-(clock, id) pops.
  if (perturb_ != nullptr) return run_perturbed(max_cycles);
  // Event queue keyed by (clock, core id): pops the smallest clock, ties
  // broken by id. Only this loop writes core clocks, so every runnable
  // core has exactly one entry and it carries the core's clock.
  using Entry = std::pair<Cycle, CoreId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  for (unsigned i = 0; i < cores_.size(); ++i)
    if (cores_[i].task && !cores_[i].task->done())
      ready.emplace(cores_[i].clock, static_cast<CoreId>(i));
  while (!ready.empty()) {
    const auto [clk, id] = ready.top();
    ready.pop();
    if (clk >= max_cycles) break;
    Core& c = cores_[id];
    // Run-ahead (DESIGN.md §13): a local step touches only this core's
    // private state, so no other core can observe when it executes. A core
    // whose next step is local runs through all of its local steps to its
    // next synchronizing step, which the queue then orders against every
    // other core's events exactly as single-stepping would. Synchronizing
    // steps execute alone with budget 1 (boundary instructions run alone
    // at any budget).
    in_run_ahead_ = fusion_ && c.task->next_step_local(*this, id);
    do {
      if (in_run_ahead_) fuse_budget_ = max_cycles - c.clock;
      const Cycle used = c.task->step(*this, id);
      c.clock += used < 1 ? 1 : used;
    } while (in_run_ahead_ && c.clock < max_cycles &&
             c.task->next_step_local(*this, id));
    in_run_ahead_ = false;
    fuse_budget_ = 1;
    if (!c.task->done()) {
      ready.emplace(c.clock, id);
    } else if (trace_ != nullptr) {
      // A finished task is never re-enqueued, so this fires exactly once
      // per core per run.
      trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
    }
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

Cycle Machine::run_perturbed(Cycle max_cycles) {
  // Correctness-checking mode: the installed hook picks the next core to
  // step (possibly out of clock order) and may inject idle delays. Memory
  // effects take place in host step order, so the chosen order IS the
  // logical interleaving being explored; core clocks become per-core cost
  // accounting rather than a global total order. Fusion stays off — the
  // run-ahead argument only holds for smallest-(clock, id) pops.
  fuse_budget_ = 1;
  std::vector<CoreId> runnable;
  runnable.reserve(cores_.size());
  for (;;) {
    runnable.clear();
    for (unsigned i = 0; i < cores_.size(); ++i) {
      const Core& c = cores_[i];
      if (c.task && !c.task->done() && c.clock < max_cycles)
        runnable.push_back(static_cast<CoreId>(i));
    }
    if (runnable.empty()) break;
    const CoreId id = perturb_->pick(*this, runnable);
    Core& c = cores_[id];
    ST_CHECK_MSG(c.task && !c.task->done(), "perturb picked a finished core");
    c.clock += perturb_->delay(id, c.clock);
    const Cycle used = c.task->step(*this, id);
    c.clock += used < 1 ? 1 : used;
    if (c.task->done() && trace_ != nullptr)
      trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

}  // namespace st::sim
