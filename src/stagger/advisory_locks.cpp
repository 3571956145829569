#include "stagger/advisory_locks.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace st::stagger {

AdvisoryLockTable::AdvisoryLockTable(htm::HtmSystem& htm, unsigned num_locks)
    : htm_(htm), held_(htm.mem().config().cores) {
  ST_CHECK(num_locks >= 1);
  locks_.reserve(num_locks);
  sim::Heap& heap = htm.heap();
  for (unsigned i = 0; i < num_locks; ++i)
    locks_.push_back(heap.alloc_line_aligned(heap.setup_arena(), 8));
}

unsigned AdvisoryLockTable::lock_index(sim::Addr data_addr) const {
  return static_cast<unsigned>(mix64(sim::line_addr(data_addr)) %
                               locks_.size());
}

AdvisoryLockTable::TryResult AdvisoryLockTable::try_acquire(
    sim::CoreId c, sim::Addr data_addr) {
  ST_CHECK_MSG(held_[c].lock < 0, "a core holds at most one advisory lock");
  const unsigned idx = lock_index(data_addr);
  const auto cas = htm_.nontx_cas(c, locks_[idx], 0, c + 1);
  TryResult r;
  r.latency = cas.latency;
  if (cas.success) {
    held_[c].lock = static_cast<int>(idx);
    held_[c].contended = false;
    held_[c].acquired_at = htm_.clock_now();
    r.acquired = true;
    if (obs_ != nullptr)
      obs_->lock_acquire(c, held_[c].acquired_at, idx,
                         sim::line_addr(data_addr));
  } else if (cas.observed != 0) {
    // Tell the holder someone wanted its lock (drives history decay).
    const sim::CoreId holder = static_cast<sim::CoreId>(cas.observed - 1);
    const bool holder_valid = holder < held_.size() &&
                              held_[holder].lock == static_cast<int>(idx);
    if (holder_valid) held_[holder].contended = true;
    if (obs_ != nullptr)
      obs_->lock_wait(c, htm_.clock_now(), idx, sim::line_addr(data_addr),
                      holder_valid ? static_cast<int>(holder) : -1);
  }
  return r;
}

sim::Cycle AdvisoryLockTable::release(sim::CoreId c) {
  if (held_[c].lock < 0) return 0;
  const unsigned idx = static_cast<unsigned>(held_[c].lock);
  const auto op = htm_.nontx_store(c, locks_[idx], 0, 8);
  const sim::Cycle now = htm_.clock_now();
  const sim::Cycle held_for =
      now > held_[c].acquired_at ? now - held_[c].acquired_at : 0;
  htm_.stats().core(c).h_lock_hold.add(held_for);
  if (obs_ != nullptr) obs_->lock_release(c, now, idx, held_for);
  held_[c].lock = -1;
  held_[c].contended = false;
  return op.latency;
}

}  // namespace st::stagger
