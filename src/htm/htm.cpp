#include "htm/htm.hpp"

#include "common/check.hpp"

namespace st::htm {

HtmSystem::HtmSystem(sim::Machine& machine, sim::Heap& heap,
                     sim::MemorySystem& mem, sim::MachineStats& stats)
    : machine_(machine),
      heap_(heap),
      priv_(heap.privacy()),
      mem_(mem),
      stats_(stats),
      tx_(mem.config().cores) {
  mem_.set_conflict_sink(this);
}

void HtmSystem::begin(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(!tx.active, "nested transactions are not supported");
  tx.active = true;
  tx.pending_abort = false;
  tx.info = AbortInfo{};
  tx.wb.clear();
  tx.allocs.clear();
  tx.deferred_frees.clear();
}

void HtmSystem::on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                                  std::uint16_t pc_tag, std::uint32_t first_pc,
                                  CoreId requester, std::uint32_t requester_pc) {
  TxState& tx = tx_[victim];
  ST_CHECK_MSG(tx.active, "conflict abort of a core not in a transaction");
  // A victim may be hit several times before it notices; keep the first.
  if (!tx.pending_abort) {
    tx.pending_abort = true;
    tx.info.cause = AbortCause::Conflict;
    tx.info.conflict_line = line;
    tx.info.pc_tag_valid = pc_valid;
    tx.info.pc_tag = pc_tag;
    tx.info.true_first_pc = first_pc;
    tx.info.aborter = requester;
    stats_.record_abort({victim, line, first_pc, pc_tag, clock_now()});
    // Aggressor context must be sampled now (the stamp), not at the
    // victim's abort finalization: by then the aggressor may have committed
    // and begun a different atomic block.
    if (obs_ != nullptr) obs_->conflict_stamp(victim, requester, requester_pc);
  }
  // Requester-wins: the victim's speculatively written *shared* lines must
  // vanish immediately so the requester observes committed data. This stamp
  // executes during the requester's step, so it must leave everything the
  // victim's local steps read untouched: lines still private to the
  // victim (no requester can name one) keep their residency and marks, and
  // the speculative log stays whole until the victim's own abort() drains
  // it at its next synchronizing step.
  mem_.invalidate_speculative_writes(victim);
  // A victim parked on an advisory-lock wait observes the stamp at its next
  // poll slot (DESIGN.md §13, "Parked waits").
  mem_.wake(victim);
}

AbortInfo HtmSystem::abort(CoreId c, AbortCause self_cause) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "abort of a core not in a transaction");
  if (!tx.pending_abort) {
    tx.info = AbortInfo{};
    tx.info.cause = self_cause == AbortCause::None ? AbortCause::Explicit
                                                   : self_cause;
  }
  if (obs_ != nullptr) {
    // Footprint and attribution must be read before the drain below wipes
    // the speculative log (capacity aborts already captured at stamp time).
    const AbortInfo& i = tx.info;
    obs_->tx_abort(
        c, clock_now(),
        {.cause = static_cast<std::uint8_t>(i.cause),
         .line = i.conflict_line,
         .pc_tag_valid = i.pc_tag_valid,
         .pc_tag = i.pc_tag,
         .first_pc = i.true_first_pc,
         .aborter = i.cause == AbortCause::Conflict ? int(i.aborter) : -1,
         .alloc_site = heap_.alloc_site_for(i.conflict_line),
         .priv_owner = priv_.private_owner(i.conflict_line)},
        footprint(c));
  }
  // This runs at the victim's own synchronizing step, so the full drain is
  // window-safe here: it clears the marks and log the cross-core stamp left
  // in place, invalidates any written lines the stamp exempted as private,
  // and records the spec-log high-water mark at a deterministic point.
  mem_.clear_speculative(c, /*invalidate_written=*/true);
  switch (tx.info.cause) {
    case AbortCause::Conflict: ++stats_.core(c).aborts_conflict; break;
    case AbortCause::Capacity: ++stats_.core(c).aborts_capacity; break;
    case AbortCause::Glock: ++stats_.core(c).aborts_glock; break;
    default: ++stats_.core(c).aborts_explicit; break;
  }
  // Roll back: drop speculative stores, undo allocations, cancel frees.
  // try_dealloc (not dealloc): program-issued frees may be invalid under a
  // corrupted execution (checker mode, deliberately-broken builds); the
  // harness reports heap.invalid_frees() instead of aborting the process.
  tx.wb.clear();
  for (Addr a : tx.allocs) heap_.try_dealloc(a);
  tx.allocs.clear();
  tx.deferred_frees.clear();
  tx.active = false;
  tx.pending_abort = false;
  return tx.info;
}

bool HtmSystem::commit(CoreId c, Cycle* publish_latency) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "commit of a core not in a transaction");
  if (tx.pending_abort) return false;
  if (lazy()) {
    // Commit-time conflict detection: acquire ownership of every written
    // line, aborting transactions that touched them (committer wins).
    Cycle lat = 0;
    mem_.speculative_written_lines(c, publish_scratch_);
    for (Addr line : publish_scratch_)
      lat += mem_.publish_line(c, line);
    if (publish_latency != nullptr) *publish_latency = lat;
  }
  // Footprint shape metric: speculative lines still resident at commit
  // (O(1): the speculative-line log length). Recorded before the log is
  // drained below.
  stats_.core(c).h_spec_footprint.add(mem_.speculative_lines(c));
  // Committed footprint, read before the drain: advisory-lock waiters that
  // observed this core holding their lock classify their serialization
  // against exactly the lines this attempt touched.
  if (obs_ != nullptr) obs_->capture_footprint(c, footprint(c));
  drain_wb(c, tx);
  mem_.clear_speculative(c, /*invalidate_written=*/false);
  for (Addr a : tx.deferred_frees) heap_.try_dealloc(a);
  tx.deferred_frees.clear();
  tx.allocs.clear();
  tx.wb.clear();
  tx.active = false;
  ++stats_.core(c).commits;
  return true;
}

void HtmSystem::mark_capacity_abort(CoreId c, Addr a) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "capacity abort outside a transaction");
  tx.pending_abort = true;
  tx.info = AbortInfo{};
  tx.info.cause = AbortCause::Capacity;
  tx.info.conflict_line = sim::line_addr(a);
  // Unlike conflict stamps, capacity clears speculative state right here,
  // so the footprint must be captured now (abort() keeps this first one).
  if (obs_ != nullptr) obs_->capacity_stamp(c, footprint(c));
  mem_.clear_speculative(c, /*invalidate_written=*/true);
}

void HtmSystem::drain_wb(CoreId c, TxState& tx) {
  tx.wb.drain(heap_, [&](Addr base, std::uint64_t v) {
    heap_.store(base, v, 8);
    // Commit is the publication point for transactional stores (aborted
    // attempts publish nothing): the merged chunk value just became
    // committed, shared-readable data.
    publish_stored_value(c, base, v, 0);
  });
}

HtmSystem::MemOp HtmSystem::load(CoreId c, Addr a, unsigned size,
                                 std::uint32_t pc) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "transactional load outside a transaction");
  MemOp r;
  // A pending abort is observed only at non-commuting accesses: a hit on a
  // line still private to this core touches no shared state, so letting the
  // doomed transaction run through it keeps abort delivery a deterministic
  // function of the instruction stream however far the victim has run
  // ahead (the run-ahead classifier treats exactly these accesses as
  // local).
  if (tx.pending_abort && !mem_.private_hit(c, a)) {
    r.ok = false;
    return r;
  }
  const auto out = mem_.access(c, a, size, sim::AccessKind::Load, true, pc);
  r.latency = out.latency;
  ++stats_.core(c).tx_mem_ops;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  // Only a line carrying tx_write can have buffered data. Both store paths
  // mark tx_write before write_to_wb, and a written line leaves the L1 only
  // through a capacity abort or a conflict stamp, both of which set
  // pending_abort, which fails every later load but a private hit (and a
  // stamp leaves private written lines resident).
  r.value = heap_.load(a, size);
  if (out.written) r.value = tx.wb.overlay(a, size, r.value);
#ifndef NDEBUG
  ST_CHECK_MSG(out.written || !tx.wb.holds(a),
               "buffered data on a line without tx_write");
#endif
  return r;
}

HtmSystem::MemOp HtmSystem::store(CoreId c, Addr a, std::uint64_t v,
                                  unsigned size, std::uint32_t pc) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "transactional store outside a transaction");
  MemOp r;
  // Same boundary discipline as load(): private-line hits commute with the
  // pending abort (the write buffer and speculative marks are rolled back
  // wholesale when it lands).
  if (tx.pending_abort && !mem_.private_hit(c, a)) {
    r.ok = false;
    return r;
  }
  const auto out = lazy()
                       ? mem_.tx_store_lazy(c, a, size, pc)
                       : mem_.access(c, a, size, sim::AccessKind::Store, true, pc);
  r.latency = out.latency;
  ++stats_.core(c).tx_mem_ops;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  tx.wb.put(a, v, size);
  return r;
}

HtmSystem::MemOp HtmSystem::plain_load(CoreId c, Addr a, unsigned size) {
  ST_CHECK_MSG(!tx_[c].active, "plain load inside a transaction");
  MemOp r;
  r.latency = mem_.access(c, a, size, sim::AccessKind::Load, false, 0).latency;
  r.value = heap_.load(a, size);
  return r;
}

HtmSystem::MemOp HtmSystem::plain_store(CoreId c, Addr a, std::uint64_t v,
                                        unsigned size, std::uint32_t pc) {
  ST_CHECK_MSG(!tx_[c].active, "plain store inside a transaction");
  MemOp r;
  r.latency = mem_.access(c, a, size, sim::AccessKind::Store, false, 0).latency;
  heap_.store(a, v, size);
  publish_stored_value(c, a, v, pc);
  return r;
}

namespace {
// Nontransactional accesses are cached like ordinary accesses (they simply
// never join the read/write set), so mixing them with transactional
// accesses to the same line inside one transaction would corrupt the
// speculative-data model. Workloads keep lock/map lines disjoint from data
// lines; this guard enforces it.
void check_not_own_speculative(sim::MemorySystem& mem, CoreId c, Addr a) {
  const sim::L1Line* l = mem.peek_l1(c, sim::line_addr(a));
  ST_CHECK_MSG(l == nullptr || !l->speculative(),
               "nontransactional access to a speculatively accessed line");
}
}  // namespace

HtmSystem::MemOp HtmSystem::nontx_load(CoreId c, Addr a, unsigned size) {
  check_not_own_speculative(mem_, c, a);
  MemOp r;
  const auto out = mem_.access(c, a, size, sim::AccessKind::Load, false, 0);
  r.latency = out.latency;
  if (out.capacity_abort) {
    // Filling the line would evict one of our own speculative lines: the
    // enclosing transaction overflows, exactly as a transactional fill would.
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  r.value = heap_.load(a, size);
  return r;
}

HtmSystem::MemOp HtmSystem::nontx_store(CoreId c, Addr a, std::uint64_t v,
                                        unsigned size) {
  check_not_own_speculative(mem_, c, a);
  MemOp r;
  const auto out = mem_.access(c, a, size, sim::AccessKind::Store, false, 0);
  r.latency = out.latency;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  heap_.store(a, v, size);
  // Nontransactional stores take effect immediately — publish immediately.
  publish_stored_value(c, a, v, 0);
  return r;
}

HtmSystem::CasResult HtmSystem::nontx_cas(CoreId c, Addr a,
                                          std::uint64_t expect,
                                          std::uint64_t desired) {
  check_not_own_speculative(mem_, c, a);
  CasResult r;
  r.latency = mem_.access(c, a, 8, sim::AccessKind::Load, false, 0).latency;
  r.observed = heap_.load(a, 8);
  if (r.observed == expect) {
    r.latency += mem_.access(c, a, 8, sim::AccessKind::Store, false, 0).latency;
    heap_.store(a, desired, 8);
    publish_stored_value(c, a, desired, 0);
    r.success = true;
  }
  return r;
}

Addr HtmSystem::tx_alloc(CoreId c, std::size_t size, std::uint32_t pc) {
  const Addr a = heap_.alloc(c, size, 8, pc);
  if (tx_[c].active) tx_[c].allocs.push_back(a);
  return a;
}

void HtmSystem::tx_free(CoreId c, Addr a) {
  if (tx_[c].active)
    tx_[c].deferred_frees.push_back(a);
  else
    heap_.try_dealloc(a);
}

const std::vector<Addr>& HtmSystem::written_lines(CoreId c) {
  tx_[c].wb.lines(written_scratch_);
  return written_scratch_;
}

}  // namespace st::htm
