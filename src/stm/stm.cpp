#include "stm/stm.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/env.hpp"

namespace st::stm {

namespace {
// A redo-log append is a store into a core-local log buffer: L1-store cost,
// no coherence traffic until the commit-time writeback.
constexpr Cycle kStmWriteCost = 2;

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

StmConfig StmConfig::from_env() {
  StmConfig c;
  c.enabled = env_onoff("STAGTM_STM", false);
  c.retries = static_cast<unsigned>(
      env_u64("STAGTM_STM_RETRIES", 8, 0, 1000, "an integer in [0,1000]"));
  const std::uint64_t orecs = env_u64("STAGTM_STM_ORECS", 4096, 16, 1u << 20,
                                      "a power of two in [16,1048576]");
  if (!is_pow2(orecs)) {
    const std::string v = env_str("STAGTM_STM_ORECS");
    env_fail("STAGTM_STM_ORECS", v.c_str(), "a power of two in [16,1048576]");
  }
  c.orecs = static_cast<unsigned>(orecs);
  return c;
}

StmSystem::StmSystem(htm::HtmSystem& htm, const StmConfig& cfg, unsigned cores,
                     Addr clock_addr, Addr orec_base)
    : htm_(htm), cfg_(cfg), clock_addr_(clock_addr), orec_base_(orec_base),
      tx_(cores) {
  ST_CHECK_MSG(is_pow2(cfg_.orecs), "orec-table size must be a power of two");
}

void StmSystem::reset(TxState& tx) {
  tx.active = false;
  tx.rv = 0;
  tx.reads.clear();
  tx.read_bloom.clear();
  tx.redo.clear();
  tx.write_bloom.clear();
  tx.write_orecs.clear();
  tx.held.clear();
  tx.lock_cursor = 0;
}

Cycle StmSystem::begin(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(!tx.active, "STM attempt already in flight");
  reset(tx);
  tx.active = true;
  tx.conflict_addr = 0;
  const auto rv = htm_.plain_load(c, clock_addr_, 8);
  tx.rv = rv.value;
  return rv.latency;
}

StmSystem::Op StmSystem::read(CoreId c, Addr a, unsigned size,
                              std::uint32_t pc) {
  (void)pc;
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "STM read outside an attempt");
  Op r;
  const std::uint32_t idx = orec_index(a);
  // Orec precheck (TL2 read validation, for opacity): a locked orec means
  // an in-flight writer may be about to change this line; a version past
  // rv means someone committed it since this attempt began. Either way the
  // snapshot is no longer consistent — abort and retry rather than hand
  // the interpreted program a torn view it could loop or crash on.
  const auto ow = htm_.plain_load(c, orec_addr(idx), 8);
  r.latency += ow.latency;
  if (orec_locked(ow.value) || orec_version(ow.value) > tx.rv) {
    tx.conflict_addr = orec_addr(idx);
    r.ok = false;
    return r;
  }
  const auto data = htm_.plain_load(c, a, size);
  r.latency += data.latency;
  // Reads-own-writes; the Bloom filter screens out most redo-log probes.
  const std::uint32_t word = static_cast<std::uint32_t>(a >> 3);
  r.value = tx.write_bloom.maybe(Bloom64::mask(word))
                ? tx.redo.overlay(a, size, data.value)
                : data.value;
  ++stats(c).tx_mem_ops;
  // Read-set append, deduplicated by orec (the Bloom filter screens out
  // the common fresh-orec case; a maybe falls back to the exact scan). A
  // duplicate always carries the same version: any later commit bumps the
  // orec past rv (wv = clock+1 > rv), which the precheck above catches.
  const std::uint64_t m = Bloom64::mask(idx);
  if (tx.read_bloom.maybe(m)) {
    for (const ReadEntry& e : tx.reads)
      if (e.orec == idx) return r;
  }
  tx.reads.push_back({idx, ow.value});
  tx.read_bloom.add(m);
  return r;
}

Cycle StmSystem::write(CoreId c, Addr a, std::uint64_t v, unsigned size) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "STM write outside an attempt");
  tx.redo.put(a, v, size);
  tx.write_bloom.add(Bloom64::mask(static_cast<std::uint32_t>(a >> 3)));
  ++stats(c).tx_mem_ops;
  return kStmWriteCost;
}

StmSystem::LockStep StmSystem::lock_next(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "STM lock step outside an attempt");
  LockStep r;
  if (tx.write_orecs.empty()) {
    // The write set's distinct orecs, in sorted index order: two STM
    // writers acquiring overlapping sets meet at the same first contested
    // orec, so one always makes progress (no STM-STM deadlock). Copied out
    // of orec_scratch_, which HTM commits on other cores reuse between
    // this attempt's lock steps.
    tx.redo.lines(line_scratch_);
    tx.write_orecs = orecs_for_lines(line_scratch_);
  }
  if (tx.lock_cursor >= tx.write_orecs.size()) {
    r.status = LockStatus::kAllHeld;
    return r;
  }
  const std::uint32_t idx = tx.write_orecs[tx.lock_cursor];
  const Addr oa = orec_addr(idx);
  const auto cur = htm_.plain_load(c, oa, 8);
  r.latency += cur.latency;
  if (orec_locked(cur.value)) {
    ++stats(c).stm_orec_waits;
    tx.conflict_addr = oa;
    r.status = LockStatus::kBusy;
    return r;
  }
  // The step is atomic, so the load above cannot be raced: store the
  // locked word directly (a CAS would observe exactly `cur`).
  const auto st = htm_.plain_store(c, oa, cur.value | 1, 8);
  r.latency += st.latency;
  ++stats(c).stm_lock_acquires;
  tx.held.push_back({idx, orec_version(cur.value)});
  ++tx.lock_cursor;
  r.status = tx.lock_cursor >= tx.write_orecs.size() ? LockStatus::kAllHeld
                                                     : LockStatus::kAdvanced;
  return r;
}

Cycle StmSystem::release_held(CoreId c, TxState& tx) {
  Cycle lat = 0;
  for (const Held& h : tx.held) {
    // Guarded restore: only roll the word back if it is still our locked
    // value. An irrevocable stamp may have overwritten the lock (see
    // irrev_stamp); restoring the saved version over that stamp would hide
    // the irrevocable writes from later validators.
    const auto cas = htm_.nontx_cas(c, orec_addr(h.orec),
                                    orec_word(h.saved, true),
                                    orec_word(h.saved, false));
    lat += cas.latency;
  }
  tx.held.clear();
  return lat;
}

StmSystem::Op StmSystem::commit(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "STM commit outside an attempt");
  Op r;
  // Held-lock integrity: an irrevocable execution may have stamped (and so
  // unlocked) one of our orecs while we were acquiring the rest. Writing
  // back over its stamp would corrupt the version protocol — treat it as
  // a validation failure.
  for (const Held& h : tx.held) {
    const auto w = htm_.plain_load(c, orec_addr(h.orec), 8);
    r.latency += w.latency;
    if (w.value != orec_word(h.saved, true)) {
      tx.conflict_addr = orec_addr(h.orec);
      r.ok = false;
      break;
    }
  }
  // Strict read-set revalidation: every observed version must be unchanged
  // and unlocked (or locked by us with the same saved version). Stricter
  // than TL2's `<= rv` on purpose: it makes this step the serialization
  // point for read-only transactions too, so the commit log's append order
  // is exactly the order the serial-replay oracle re-executes.
  if (r.ok) {
    for (const ReadEntry& e : tx.reads) {
      bool mine = false;
      for (const Held& h : tx.held) {
        if (h.orec == e.orec) {
          mine = true;
          if (orec_word(h.saved, false) != e.version) r.ok = false;
          break;
        }
      }
      if (mine) {
        if (!r.ok) {
          tx.conflict_addr = orec_addr(e.orec);
          break;
        }
        continue;
      }
      const auto w = htm_.plain_load(c, orec_addr(e.orec), 8);
      r.latency += w.latency;
      if (w.value != e.version) {  // changed, or locked by another writer
        tx.conflict_addr = orec_addr(e.orec);
        r.ok = false;
        break;
      }
    }
  }
  if (!r.ok) {
    // The executor counts the abort by cause; here just restore the locks
    // and clear the attempt.
    r.latency += release_held(c, tx);
    reset(tx);
    return r;
  }
  if (!tx.redo.empty()) {
    // Write version: clock + 1, published before the writeback so any
    // concurrent reader that slips between our steps — there are none;
    // this whole method runs inside one atomic step — would still observe
    // a version past its rv. The bump is a plain store: committed state.
    const auto clk = htm_.plain_load(c, clock_addr_, 8);
    r.latency += clk.latency;
    const std::uint64_t wv = clk.value + 1;
    r.latency += htm_.plain_store(c, clock_addr_, wv, 8).latency;
    // Redo-log writeback. Plain stores fire eager requester-wins
    // coherence: any hardware transaction holding one of these lines
    // speculatively aborts here — the committing STM transaction wins,
    // exactly as a committed plain store always has.
    tx.redo.drain(htm_.heap(), [&](Addr base, std::uint64_t v) {
      r.latency += htm_.plain_store(c, base, v, 8).latency;
    });
    // Release every held orec at the new version.
    for (const Held& h : tx.held)
      r.latency += htm_.plain_store(c, orec_addr(h.orec),
                                    orec_word(wv, false), 8).latency;
    tx.held.clear();
  }
  reset(tx);
  return r;
}

Cycle StmSystem::abort(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "STM abort outside an attempt");
  const Cycle lat = release_held(c, tx);
  reset(tx);
  return lat;
}

const std::vector<std::uint32_t>& StmSystem::orecs_for_lines(
    const std::vector<Addr>& lines) {
  orec_scratch_.clear();
  for (Addr l : lines) orec_scratch_.push_back(orec_index(l));
  std::sort(orec_scratch_.begin(), orec_scratch_.end());
  orec_scratch_.erase(
      std::unique(orec_scratch_.begin(), orec_scratch_.end()),
      orec_scratch_.end());
  return orec_scratch_;
}

void StmSystem::begin_irrev(CoreId c, std::uint64_t wv) {
  TxState& tx = tx_[c];
  tx.irrev_wv = wv;
  tx.irrev_stamped.clear();
  tx.irrev_bloom.clear();
}

Cycle StmSystem::irrev_stamp(CoreId c, Addr line) {
  TxState& tx = tx_[c];
  const std::uint32_t idx = orec_index(line);
  const std::uint64_t m = Bloom64::mask(idx);
  if (tx.irrev_bloom.maybe(m) &&
      std::find(tx.irrev_stamped.begin(), tx.irrev_stamped.end(), idx) !=
          tx.irrev_stamped.end())
    return 0;
  tx.irrev_stamped.push_back(idx);
  tx.irrev_bloom.add(m);
  // The stamp overwrites whatever is there — including an STM writer's
  // lock. That writer observes the glock at its next step, aborts, and its
  // guarded release leaves this stamp in place (see release_held).
  return htm_.plain_store(c, orec_addr(idx), orec_word(tx.irrev_wv, false), 8)
      .latency;
}

}  // namespace st::stm
