#include "sim/machine.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/observer.hpp"

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
  // The queue is one (clock, id) key per core: each event steps the core
  // with the smallest key, ties broken by id, and re-keys it in place. Only
  // this loop and wake() write core clocks, and both keep a runnable core's
  // key equal to its clock.
  leaves_ = 1;
  while (leaves_ < cores()) leaves_ *= 2;
  node_.assign(2 * leaves_, Node{kIdle, 0});
  // In leaf order, so each node is last replayed after both its subtrees.
  for (unsigned i = 0; i < leaves_; ++i) {
    const bool runnable =
        i < cores() && cores_[i].task && !cores_[i].task->done();
    rekey(static_cast<CoreId>(i), runnable ? cores_[i].clock : kIdle);
  }
  horizon_ = max_cycles;
  for (;;) {
    const CoreId id = node_[1].id;
    // Past the horizon, or every task done (kIdle).
    if (node_[1].key >= max_cycles) break;
    ++events_;
    Core& c = cores_[id];
    c.park_period = 0;  // a parked core pops at its wake slot: the park ends
    stepping_ = id;
    // One event is the popped core's next step plus every local step that
    // follows it (DESIGN.md §13). The first step runs at the core's
    // (clock, id) turn, and only its first instruction may synchronize:
    // the rest of it, and every local step after it, touch only this
    // core's private state, so no other core can observe when they
    // execute and the distance to the horizon is their budget. The event
    // ends before the core's next synchronizing step, which the queue then
    // orders against every other core's events exactly as single-stepping
    // would. Each step is classified at most once, after the step before
    // it ran.
    bool done = false;
    fuse_budget_ = fusion_ ? max_cycles - c.clock : 1;
    for (;;) {
      const Cycle used = c.task->step(*this, id);
      ++steps_;
      c.clock += used < 1 ? 1 : used;
      done = c.task->done();
      if (!fusion_ || done || park_until_ != 0 || c.clock >= max_cycles ||
          !c.task->next_step_local(*this, id))
        break;
      in_run_ahead_ = true;
      fuse_budget_ = max_cycles - c.clock;
    }
    in_run_ahead_ = false;
    fuse_budget_ = 1;
    stepping_ = kNoCore;
    if (park_until_ != 0) {
      // Parked waits (DESIGN.md §13): the step was a poll that ends where
      // the first skipped poll starts. A finished task polls no more, so a
      // park requested by its last step is dropped: its clock stays at the
      // step's end and wake() leaves it alone.
      ST_CHECK_MSG(c.clock == c.park_first, "park slot is not the step's end");
      if (done)
        c.park_period = 0;
      else
        c.clock = park_until_;
      park_until_ = 0;
    }
    if (!done) {
      rekey(id, c.clock);
    } else {
      rekey(id, kIdle);
      // A finished task is never re-keyed, so this fires exactly once per
      // core per run.
      if (obs_ != nullptr) obs_->core_done(id, c.clock);
    }
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

bool Machine::park(CoreId core, Cycle first, Cycle period, Cycle polls) {
  if (!fusion_ || perturb_ != nullptr || stepping_ == kNoCore) return false;
  ST_CHECK_MSG(core == stepping_, "only the stepping core may park");
  ST_CHECK(period >= 1);
  // Never park past the horizon: the wake slot stays below max_cycles, so
  // the core steps there and settles every skipped poll before run()
  // returns, exactly as a bounded single-stepped run would have polled.
  if (first >= horizon_) return false;
  const Cycle room = (horizon_ - 1 - first) / period;
  if (polls > room) polls = room;
  if (polls == 0) return false;
  cores_[core].park_first = first;
  cores_[core].park_period = period;
  park_until_ = first + polls * period;
  return true;
}

void Machine::wake(CoreId core) {
  Core& c = cores_[core];
  // Parked cores exist only inside run(), and a park takes effect only when
  // the parking step returns, so the stepping core is never parked.
  if (c.park_period == 0 || core == stepping_) return;
  // The first poll slot after the current event in (clock, id) order.
  const Cycle t = cores_[stepping_].clock;
  Cycle s = c.park_first;
  if (s < t || (s == t && core < stepping_)) {
    s += (t - s) / c.park_period * c.park_period;
    if (s < t || (s == t && core < stepping_)) s += c.park_period;
  }
  ST_CHECK(s <= c.clock);
  c.clock = s;
  rekey(core, s);
  c.park_period = 0;
}

void Machine::rekey(CoreId core, Cycle key) {
  // Carry the winner up the leaf-to-root path: each level loads only the
  // sibling, whose address is known in advance, and selects with a mask.
  // Left subtrees hold the lower ids, so a tie goes to the left node.
  Node w{key, core};
  unsigned j = leaves_ + core;
  node_[j] = w;
  for (; j > 1; j /= 2) {
    const Node s = node_[j ^ 1];
    const bool right = (j & 1) != 0;  // s is the left sibling
    const bool s_wins = (s.key < w.key) | (right & (s.key == w.key));
    const std::uint64_t take = 0 - static_cast<std::uint64_t>(s_wins);
    w.key ^= (w.key ^ s.key) & take;
    w.id ^= (w.id ^ s.id) & static_cast<CoreId>(take);
    node_[j / 2] = w;
  }
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
    ++events_;
    ++steps_;
    c.clock += perturb_->delay(id, c.clock);
    const Cycle used = c.task->step(*this, id);
    c.clock += used < 1 ? 1 : used;
    if (c.task->done() && obs_ != nullptr) obs_->core_done(id, c.clock);
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

}  // namespace st::sim
