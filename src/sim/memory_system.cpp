#include "sim/memory_system.hpp"

#include <bit>

#include "common/check.hpp"
#include "sim/machine.hpp"

namespace st::sim {

MemorySystem::MemorySystem(const MemConfig& cfg, MachineStats& stats,
                           Machine& machine, PrivacyMap& priv)
    : cfg_(cfg),
      stats_(stats),
      machine_(machine),
      priv_(priv),
      watch_(cfg.cores, 0),
      l3_(cfg.l3) {
  ST_CHECK(cfg.cores >= 1 && cfg.cores <= kMaxCores);
  ST_CHECK(machine.cores() == cfg.cores);
  ST_CHECK(cfg.pc_tag_bits >= 1 && cfg.pc_tag_bits <= 16);
  priv_.set_sink(this);
  l1_.reserve(cfg.cores);
  l2_.reserve(cfg.cores);
  for (unsigned i = 0; i < cfg.cores; ++i) {
    l1_.push_back(std::make_unique<L1Cache>(cfg.l1));
    l2_.push_back(std::make_unique<TagCache>(cfg.l2));
  }
}

bool MemorySystem::conflict_check(CoreId remote, Addr line, AccessKind kind,
                                  CoreId requester,
                                  std::uint32_t requester_pc) {
  // Under lazy detection, reads never kill anyone: speculative writes are
  // buffered, so the heap always serves committed data. Only stores (the
  // commit-time publish, nontransactional stores, irrevocable execution)
  // conflict with speculative state.
  if (cfg_.lazy_conflicts && kind == AccessKind::Load) return false;
  L1Line* rl = l1_[remote]->find(line);
  if (rl == nullptr) return false;
  const bool conflict = (kind == AccessKind::Store) ? rl->speculative()
                                                    : rl->tx_write;
  if (!conflict) return false;
  ST_CHECK_MSG(sink_ != nullptr, "transactional conflict without a sink");
  // Capture the line's PC info before the sink clears speculative state.
  const bool pc_valid = rl->pc_tag_valid;
  const std::uint16_t tag = rl->pc_tag;
  const std::uint32_t first = rl->first_pc;
  sink_->on_conflict_abort(remote, line, pc_valid, tag, first, requester,
                           requester_pc);
  return true;
}

void MemorySystem::dir_drop(CoreId c, Addr line) {
  DirEntry* e = dir_probe(c, line);
  if (e == nullptr) return;
  e->sharers.clear(c);
  if (e->owner == static_cast<int>(c)) e->owner = -1;
  if (e->sharers.none()) dir_.erase(line);
}

void MemorySystem::invalidate_remote(CoreId remote, Addr line, DirEntry& d) {
  if (L1Line* rl = l1_[remote]->find(line)) {
    // Coherence state only: if the line was speculative, the conflict check
    // just stamped the victim, and the victim drains its own marks and log
    // at its next synchronizing step. Compacting the victim's log here —
    // during the *requester's* step — would make the log's size transients
    // (and hence spec_log_hwm) depend on how far the victim ran ahead.
    l1_[remote]->invalidate(*rl);
    if (watch_[remote] == line) wake(remote);
  }
  d.sharers.clear(remote);
  if (d.owner == static_cast<int>(remote)) d.owner = -1;
}

bool MemorySystem::watch(CoreId c, Addr line) {
  if (l1_[c]->find(line) == nullptr || priv_.private_owner(line) >= 0)
    return false;
  watch_[c] = line;
  return true;
}

void MemorySystem::wake(CoreId c) {
  watch_[c] = 0;
  machine_.wake(c);
}

void MemorySystem::settle_hits(CoreId c, Addr line, std::uint64_t n) {
  stats_.core(c).l1_hits += n;
  l1_[c]->touch_n(l1_[c]->find(line), n);
}

Cycle MemorySystem::fill_latency(CoreId c, Addr line) {
  if (l2_[c]->access(line)) return cfg_.l2_lat;
  if (l3_.access(line)) return cfg_.l3_lat;
  return cfg_.l3_lat + cfg_.mem_lat;
}

AccessOutcome MemorySystem::access(CoreId c, Addr addr, unsigned size,
                                   AccessKind kind, bool transactional,
                                   std::uint32_t pc) {
  ST_CHECK(c < cfg_.cores);
  const Addr line = line_addr(addr);
  ST_CHECK_MSG(line_addr(addr + size - 1) == line,
               "access crosses a cache line");
  // Line 0 marks an empty way in the tag rows; no heap line is 0.
  ST_CHECK_MSG(line != 0, "access to the null line");

  // Privacy classification (it feeds the priv_hits/priv_misses counters and
  // the run-ahead cross-check below). A foreign access reaching a
  // still-private line should be impossible — addresses only cross cores
  // through the publication channels the privacy map watches — but if one
  // ever does (defensive), the access *is* the publication: escape first.
  const int priv_owner = priv_.private_owner(line);
  if (priv_owner >= 0 && priv_owner != static_cast<int>(c))
    priv_.publish_value(c, line, pc);
  const bool is_private = priv_owner == static_cast<int>(c);

  AccessOutcome out;
  out.latency = cfg_.l1_lat;
  L1Cache& l1 = *l1_[c];
  L1Line* l = l1.find(line);
  const bool hit = l != nullptr &&
                   (kind == AccessKind::Load || coh_can_write(l->state));

#ifndef NDEBUG
  // Cross-check of the local-step classification: during run-ahead every
  // access must be exactly what next_step_local promised — an L1 hit on a
  // line private to this core.
  if (machine_.in_run_ahead())
    ST_CHECK_MSG(is_private && hit,
                 "run-ahead access was not a private-line L1 hit");
#endif

  if (hit) {
    ++stats_.core(c).l1_hits;
    if (is_private) ++stats_.core(c).priv_hits;
    if (kind == AccessKind::Store && l->state == Coh::E) l->state = Coh::M;
  } else {
    ++stats_.core(c).l1_misses;
    if (is_private) ++stats_.core(c).priv_misses;

    // Under lazy conflict detection, a *transactional* request defers its
    // conflicts to commit time; everything else stays eager.
    const bool check_conflicts = !(transactional && cfg_.lazy_conflicts);
    if (kind == AccessKind::Store) {
      ST_CHECK_MSG(check_conflicts,
                   "lazy transactional stores must use tx_store_lazy");
      // Invalidate every other copy, aborting conflicting transactions
      // (requester wins). The sharer mask is snapshotted and iterated with
      // bit scans; the directory entry pointer stays valid until an abort
      // actually fires (only clear_speculative erases entries, and a LineMap
      // erase may relocate ours), so the directory is re-probed per victim
      // only after a conflict instead of unconditionally twice.
      DirEntry* e = dir_probe(c, line);
      SharerMask m = e == nullptr ? SharerMask{} : e->sharers;
      m.clear(c);
      m.for_each_set([&](CoreId s) {
        if (conflict_check(s, line, kind, c, pc)) e = dir_probe(c, line);
        if (e == nullptr) return;
        invalidate_remote(s, line, *e);
        if (e->sharers.none()) {
          dir_.erase(line);
          ++stats_.core(c).dir_probes;
          e = nullptr;
        }
      });
      out.latency += (l != nullptr) ? cfg_.dir_lat        // upgrade S/O -> M
                                    : cfg_.dir_lat + fill_latency(c, line);
    } else {  // Load miss
      const DirEntry* itd = dir_probe(c, line);
      const int owner = itd == nullptr ? -1 : itd->owner;
      if (owner >= 0 && owner != static_cast<int>(c)) {
        const bool conflicted =
            check_conflicts &&
            conflict_check(static_cast<CoreId>(owner), line, kind, c, pc);
        if (conflicted) {
          // The victim's speculative copy was dropped; fetch from below.
          out.latency += cfg_.dir_lat + fill_latency(c, line);
        } else {
          // Owner forwards; M/E owner transitions to O (retains ownership
          // for future forwards, which is the MOESI "O" role).
          if (L1Line* ol = l1_[static_cast<CoreId>(owner)]->find(line))
            ol->state = Coh::O;
          out.latency += cfg_.fwd_lat;
        }
      } else {
        out.latency += fill_latency(c, line);
      }
    }

    // Install or upgrade the local copy. The victim is evicted (and its
    // directory entry dropped) before the new line's directory update.
    L1Line* v = nullptr;
    if (l == nullptr) {
      v = l1.victim(line);
      // A stamped core holds invalid-but-marked slots until it aborts, but
      // it can only retire private *hits* until then, so an install never
      // reuses one (reuse would orphan the slot's log entry).
      ST_CHECK(!(v->state == Coh::I && v->speculative()));
      if (v->state != Coh::I) {
        if (v->speculative()) {
          // Evicting our own speculative line overflows the read/write set.
          out.capacity_abort = true;
          return out;
        }
        dir_drop(c, v->line);
      }
    }
    // Re-probe: aborts and evictions above may have erased or relocated
    // the entry, so the install path cannot reuse an earlier pointer.
    ++stats_.core(c).dir_probes;
    DirEntry& d2 = dir_.get_or_insert(line);
    Coh state;
    if (kind == AccessKind::Store) {
      state = Coh::M;
      d2.owner = static_cast<int>(c);
    } else {
      SharerMask others = d2.sharers;
      others.clear(c);
      state = (others.none() && d2.owner < 0) ? Coh::E : Coh::S;
      if (state == Coh::E) d2.owner = static_cast<int>(c);
    }
    d2.sharers.set(c);
    if (l == nullptr)
      l = &l1.install(*v, line, state);
    else
      l->state = state;
  }

  l1.touch(*l);
  if (transactional) {
    if (!l->speculative()) {
      // First speculative touch of this line: record the PC tag (§4).
      l->pc_tag = static_cast<std::uint16_t>(pc & ((1u << cfg_.pc_tag_bits) - 1));
      l->first_pc = pc;
      l->pc_tag_valid = true;
    }
    l1.mark_speculative(*l, kind == AccessKind::Store);
  }
  out.written = l->tx_write;
  return out;
}

AccessOutcome MemorySystem::tx_store_lazy(CoreId c, Addr addr, unsigned size,
                                          std::uint32_t pc) {
  // Fetch for reading (keeps remote copies alive, raises no conflicts)...
  AccessOutcome out = access(c, addr, size, AccessKind::Load, true, pc);
  if (out.capacity_abort) return out;
  // ...then privately mark the line written; the write buffer holds data.
  L1Line* l = l1_[c]->find(line_addr(addr));
  ST_CHECK(l != nullptr);
  l1_[c]->mark_speculative(*l, /*write=*/true);
  out.written = true;
  return out;
}

Cycle MemorySystem::publish_line(CoreId c, Addr line) {
  line = line_addr(line);
  Cycle lat = cfg_.dir_lat;
  // Same probe-hoisting discipline as the store-invalidate loop in access().
  DirEntry* e = dir_probe(c, line);
  SharerMask m = e == nullptr ? SharerMask{} : e->sharers;
  m.clear(c);
  m.for_each_set([&](CoreId s) {
    // PC 0: the publish happens at commit, outside any aggressor access.
    if (conflict_check(s, line, AccessKind::Store, c, 0))
      e = dir_probe(c, line);
    if (e == nullptr) return;
    invalidate_remote(s, line, *e);
    if (e->sharers.none()) {
      dir_.erase(line);
      ++stats_.core(c).dir_probes;
      e = nullptr;
    }
  });
  L1Line* l = l1_[c]->find(line);
  ST_CHECK_MSG(l != nullptr, "publishing a line not in the committer's L1");
  l->state = Coh::M;
  if (e == nullptr) {
    e = &dir_.get_or_insert(line);
    ++stats_.core(c).dir_probes;
  }
  e->sharers.set(c);
  e->owner = static_cast<int>(c);
  return lat;
}

void MemorySystem::speculative_written_lines(CoreId c,
                                             std::vector<Addr>& out) {
  out.clear();
  l1_[c]->for_each_speculative([&](const L1Line& l) {
    if (l.tx_write) out.push_back(l.line);
  });
}

void MemorySystem::speculative_line_addrs(CoreId c, std::vector<Addr>& out) {
  out.clear();
  l1_[c]->for_each_speculative(
      [&](const L1Line& l) { out.push_back(l.line); });
}

void MemorySystem::clear_speculative(CoreId c, bool invalidate_written) {
  L1Cache& l1 = *l1_[c];
  auto& cs = stats_.core(c);
  if (l1.spec_log_high_water() > cs.spec_log_hwm)
    cs.spec_log_hwm = l1.spec_log_high_water();
  l1.drain_speculative([&](L1Line& l) {
    if (l.tx_write && invalidate_written) {
      l1.invalidate(l);
      dir_drop(c, l.line);
    }
  });
}

void MemorySystem::invalidate_speculative_writes(CoreId c) {
  L1Cache& l1 = *l1_[c];
  l1.for_each_speculative([&](L1Line& l) {
    if (!l.tx_write) return;
    // Lines still private to the victim are exempt: no requester can name
    // one (the defensive publish in access() escapes a line *before* any
    // foreign access reaches the conflict check), and the victim's
    // local-step classification depends on their residency staying put
    // until its own abort step.
    if (priv_.private_to(c, l.line)) return;
    l1.invalidate(l);
    dir_drop(c, l.line);
  });
}

void MemorySystem::on_line_escape(CoreId publisher, Addr line, CoreId owner,
                                  std::uint32_t pc) {
  ++stats_.core(publisher).priv_escapes;
  if (obs_ != nullptr)
    obs_->line_escape(publisher, machine_.now(), owner, pc, line);
}

unsigned MemorySystem::speculative_lines(CoreId c) const {
  return static_cast<unsigned>(l1_[c]->speculative_line_count());
}

SharerMask MemorySystem::dir_sharers(Addr line) const {
  const DirEntry* e = dir_.find(line_addr(line));
  return e == nullptr ? SharerMask{} : e->sharers;
}

int MemorySystem::dir_owner(Addr line) const {
  const DirEntry* e = dir_.find(line_addr(line));
  return e == nullptr ? -1 : e->owner;
}

void MemorySystem::check_invariants() const {
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    l1_[c]->check_log_invariants();
    l1_[c]->check_tag_rows();
    // The converse of the presence check below: every valid copy, private
    // lines included, is in its line's sharer set.
    l1_[c]->for_each_valid([&](const L1Line& l) {
      const DirEntry* e = dir_.find(l.line);
      ST_CHECK_MSG(e != nullptr && e->sharers.test(c),
                   "valid L1 line missing from the directory");
    });
  }
  dir_.for_each([&](Addr line, const DirEntry& d) {
    ST_CHECK_MSG(d.sharers.any(), "directory entry with no sharers");
    if (d.owner >= 0)
      ST_CHECK_MSG(d.sharers.test(static_cast<CoreId>(d.owner)),
                   "owner not in sharer set");
    unsigned writable = 0;
    for (unsigned c = 0; c < cfg_.cores; ++c) {
      const L1Line* l = l1_[c]->find(line);
      const bool shares = d.sharers.test(c);
      ST_CHECK_MSG((l != nullptr) == shares, "directory/L1 presence mismatch");
      if (l != nullptr && coh_can_write(l->state)) {
        ++writable;
        ST_CHECK_MSG(d.owner == static_cast<int>(c),
                     "writable copy without directory ownership");
      }
    }
    ST_CHECK_MSG(writable <= 1, "multiple writable copies of one line");
  });
}

}  // namespace st::sim
