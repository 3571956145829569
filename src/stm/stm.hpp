// TL2-style software transactional memory tier (DESIGN.md §16).
//
// A global-version-clock STM in the Dice/Shalev/Shavit "Transactional
// Locking II" lineage, used by the transaction executor as a middle
// fallback tier between HTM retries and the irrevocable global lock:
// transactions that exhaust their hardware retries serialize only against
// real conflicts (per-orec versioned write-locks) instead of against every
// other core.
//
// Layout: one 8-byte global version clock plus a hash-indexed table of
// STAGTM_STM_ORECS ownership records (orecs), all allocated line-aligned
// from the heap's setup arena and accessed through the simulated memory
// system — orec reads, lock CASes, the clock bump, and the redo-log
// writeback are real coherent accesses with real latencies, performed only
// at synchronizing steps so run-ahead and single-stepping stay
// bit-identical (the determinism argument is in DESIGN.md §16).
//
// Orec encoding: an unlocked orec holds `version << 1`; a locked orec holds
// `(saved_version << 1) | 1`. The owner and saved version are tracked
// host-side (per-core held list) — the simulated word carries exactly what
// real TL2 metadata would, and the lock bit is what hardware transactions
// inspect at commit (subscription-style coexistence, see htm_commit notes
// in runtime/tx_executor.cpp).
//
// Per-transaction state: a read set of (orec index, observed version)
// pairs and a deferred-write redo log of byte-masked 8-byte chunks, each
// summarized by a 64-bit Bloom filter for fast membership (the exact
// structures resolve Bloom false positives). Commit acquires write-set
// orecs in sorted index order (bounded spin, timestamp-based abort), then
// in one atomic step validates the read set, bumps the clock, drains the
// redo log with plain stores (eager requester-wins coherence aborts any
// hardware transaction holding those lines speculatively — the STM commit
// wins, like any other committed store), and releases the orecs at the new
// write version.
//
// Knobs (strict contract, see common/env.hpp):
//   STAGTM_STM=on|off        enable the tier (default off — the executor
//                            falls straight from HTM retries to the glock,
//                            byte-identical to builds without this file)
//   STAGTM_STM_RETRIES=<n>   STM attempts before the glock (default 8)
//   STAGTM_STM_ORECS=<n>     orec-table size, power of two (default 4096)
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "htm/htm.hpp"
#include "sim/write_buffer.hpp"

namespace st::stm {

using sim::Addr;
using sim::CoreId;
using sim::Cycle;

struct StmConfig {
  bool enabled = false;
  unsigned retries = 8;   // STM attempts before the glock
  unsigned orecs = 4096;  // power of two

  /// Reads STAGTM_STM / STAGTM_STM_RETRIES / STAGTM_STM_ORECS; exits 2 on
  /// malformed values. Parsed fresh on each call (no latch) so tests can
  /// exercise the validation.
  static StmConfig from_env();
};

// ---- orec word encoding ----------------------------------------------------
inline constexpr std::uint64_t orec_word(std::uint64_t version, bool locked) {
  return (version << 1) | (locked ? 1u : 0u);
}
inline constexpr bool orec_locked(std::uint64_t w) { return (w & 1) != 0; }
inline constexpr std::uint64_t orec_version(std::uint64_t w) { return w >> 1; }

/// 64-bit two-hash Bloom filter summarizing a small set of 32-bit keys.
/// False positives only (a clear bit proves absence); callers fall back to
/// the exact structure on a maybe. add() and maybe() take the key's mask(),
/// so a caller that asks and then adds hashes once; passing a key instead
/// does not compile.
struct Bloom64 {
  std::uint64_t bits = 0;
  void add(std::uint64_t m) { bits |= m; }
  bool maybe(std::uint64_t m) const { return (bits & m) == m; }
  void add(std::uint32_t key) = delete;
  bool maybe(std::uint32_t key) const = delete;
  void clear() { bits = 0; }
  static std::uint64_t mask(std::uint32_t key) {
    const std::uint64_t h = mix64(key + 1);
    return (std::uint64_t{1} << (h & 63)) |
           (std::uint64_t{1} << ((h >> 8) & 63));
  }
};

class StmSystem {
 public:
  /// `clock_addr` and `orec_base` must be line-aligned, zero-initialized
  /// allocations of 8 and cfg.orecs*8 bytes from the setup arena (the
  /// TxSystem allocates them only when the tier is enabled, so the heap
  /// layout is byte-identical with STAGTM_STM=off).
  StmSystem(htm::HtmSystem& htm, const StmConfig& cfg, unsigned cores,
            Addr clock_addr, Addr orec_base);

  const StmConfig& config() const { return cfg_; }
  Addr clock_addr() const { return clock_addr_; }
  Addr orec_addr(std::uint32_t idx) const { return orec_base_ + 8u * idx; }

  /// Hash of an address to its covering orec index. Line-granular (all
  /// bytes of a cache line share an orec) and mixed so that adjacent lines
  /// spread across the table; exposed for the collision unit tests.
  std::uint32_t orec_index(Addr a) const {
    return static_cast<std::uint32_t>(mix64(sim::line_addr(a) >> 6) &
                                      (cfg_.orecs - 1));
  }

  // ---- transaction lifecycle (driven by runtime/tx_executor.cpp) ----
  struct Op {
    std::uint64_t value = 0;
    Cycle latency = 0;
    bool ok = true;  // false: the attempt must abort (validation)
  };

  /// Begins an attempt: samples the read version from the global clock.
  /// The executor must have verified the glock is free first.
  Cycle begin(CoreId c);

  /// TL2 read: orec precheck (abort on locked or version > rv — opacity),
  /// coherent data load, redo-log overlay (reads-own-writes), read-set
  /// append. One synchronizing step.
  Op read(CoreId c, Addr a, unsigned size, std::uint32_t pc);

  /// Deferred write: byte-masked append to the redo log plus Bloom update.
  /// No simulated memory traffic until commit.
  Cycle write(CoreId c, Addr a, std::uint64_t v, unsigned size);

  bool read_only(CoreId c) const { return tx_[c].redo.empty(); }
  bool active(CoreId c) const { return tx_[c].active; }

  /// One lock-acquisition step: try to lock the next write-set orec in
  /// sorted index order.
  enum class LockStatus : std::uint8_t {
    kAllHeld,   // every write-set orec is locked (or there were none)
    kAdvanced,  // locked one more; call again next step
    kBusy,      // next orec is held by another writer; spin or give up
  };
  struct LockStep {
    LockStatus status = LockStatus::kAllHeld;
    Cycle latency = 0;
  };
  LockStep lock_next(CoreId c);

  /// Final commit step (executor has checked the glock): verify held locks
  /// survived (an irrevocable stamp can clobber one), validate the read
  /// set (every observed version unchanged and unlocked-by-others — strict
  /// revalidation so the commit step IS the serialization point and the
  /// commit log's append order is the order the oracle replays), then for
  /// writers bump the clock, drain the redo log, and release the orecs at
  /// the new version. On failure the held orecs are released (restored)
  /// and the attempt state cleared.
  Op commit(CoreId c);

  /// Aborts the attempt: guarded release of held orecs (restore the saved
  /// version only if the word is still our locked value — an irrevocable
  /// stamp may have overwritten it, and rolling that back would hide the
  /// irrevocable writes) and state reset. Returns the release latency.
  Cycle abort(CoreId c);

  /// Line whose metadata caused the last validation/lock failure (the orec
  /// word's address; feeds trace and blame records).
  Addr conflict_addr(CoreId c) const { return tx_[c].conflict_addr; }

  // ---- HTM-commit coexistence (called from the executor's atomic
  // commit_sequence step; see runtime/tx_executor.cpp) ----
  /// Distinct orec indices covering `lines`, sorted (scratch-buffer reuse).
  const std::vector<std::uint32_t>& orecs_for_lines(
      const std::vector<Addr>& lines);

  // ---- irrevocable (glock) coexistence ----
  /// Glock acquired: remember the irrevocable write version (the executor
  /// bumped the clock) and reset the stamp-dedup set.
  void begin_irrev(CoreId c, std::uint64_t wv);
  /// Stamp the orec covering an irrevocable store's line at the
  /// irrevocable write version (once per orec per irrevocable execution;
  /// repeat stores to the same orec are free). May clobber an STM writer's
  /// lock — that writer aborts at its next step (it observes the glock)
  /// and its guarded release leaves the stamp in place.
  Cycle irrev_stamp(CoreId c, Addr line);

 private:
  struct ReadEntry {
    std::uint32_t orec = 0;
    std::uint64_t version = 0;
  };
  struct Held {
    std::uint32_t orec = 0;
    std::uint64_t saved = 0;  // version restored on abort
  };
  struct TxState {
    bool active = false;
    std::uint64_t rv = 0;
    std::vector<ReadEntry> reads;
    Bloom64 read_bloom;
    sim::WriteBuffer redo;
    Bloom64 write_bloom;
    std::vector<std::uint32_t> write_orecs;  // filled at the first lock step
    std::vector<Held> held;
    std::size_t lock_cursor = 0;
    Addr conflict_addr = 0;
    // Irrevocable-stamp dedup (valid between begin_irrev and glock release).
    std::uint64_t irrev_wv = 0;
    std::vector<std::uint32_t> irrev_stamped;
    Bloom64 irrev_bloom;
  };

  void reset(TxState& tx);
  /// Guarded release of every held orec; returns accumulated latency.
  Cycle release_held(CoreId c, TxState& tx);
  sim::CoreStats& stats(CoreId c) { return htm_.stats().core(c); }

  htm::HtmSystem& htm_;
  StmConfig cfg_;
  Addr clock_addr_ = 0;
  Addr orec_base_ = 0;
  std::vector<TxState> tx_;
  std::vector<std::uint32_t> orec_scratch_;
  std::vector<Addr> line_scratch_;
};

}  // namespace st::stm
