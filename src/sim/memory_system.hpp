// Coherent memory hierarchy with eager requester-wins conflict detection.
//
// Models the machine of Table 2 in the paper: per-core L1 (2 cycles),
// private L2 (10), shared L3 (30), memory (125 @ 2.5 GHz), MOESI-style
// directory coherence, two transactional bits and a 12-bit conflicting-PC
// tag per L1 line.
//
// Conflicts are detected when a coherence request reaches a remote L1 whose
// copy of the line is speculative: the requester always wins and the victim
// transaction is aborted through the ConflictSink (implemented by the HTM
// layer, which records abort info and clears the victim's speculative
// state).
//
// One construction order builds the machine (runtime/tx_system.cpp): stats,
// Machine, Heap (which owns the PrivacyMap), then this memory system, which
// reads time, run-ahead state and parked-core wakeups from the Machine and
// registers itself as the privacy map's escape sink, then the HTM, which
// registers itself as the conflict sink.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/observer.hpp"
#include "sim/cache.hpp"
#include "sim/dir_map.hpp"
#include "sim/privacy.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace st::sim {

class Machine;

struct MemConfig {
  unsigned cores = 16;
  CacheGeometry l1{64 * 1024, 8};
  CacheGeometry l2{1024 * 1024, 8};
  CacheGeometry l3{8 * 1024 * 1024, 8};
  Cycle l1_lat = 2;
  Cycle l2_lat = 10;
  Cycle l3_lat = 30;
  Cycle mem_lat = 125;   // 50 ns at 2.5 GHz
  Cycle fwd_lat = 30;    // cache-to-cache forward via the directory
  Cycle dir_lat = 30;    // directory/upgrade round trip
  unsigned pc_tag_bits = 12;
  /// Lazy conflict detection (paper §8 future work): transactional accesses
  /// never abort remote transactions during execution; conflicts fire at
  /// commit time via publish_line (committer wins). Nontransactional and
  /// plain accesses stay eager — they act on committed state immediately.
  bool lazy_conflicts = false;
};

enum class AccessKind : std::uint8_t { Load, Store };

/// Callback interface implemented by the HTM layer.
class ConflictSink {
 public:
  virtual ~ConflictSink() = default;

  /// A coherence request from `requester` conflicted with speculative state
  /// in `victim`'s L1. The sink must abort the victim transaction (it is
  /// expected to call MemorySystem::clear_speculative(victim, true)).
  /// `requester_pc` is the aggressor access's program counter (0 when the
  /// conflict fires outside an instruction, e.g. lazy commit publication).
  virtual void on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                                 std::uint16_t pc_tag, std::uint32_t first_pc,
                                 CoreId requester,
                                 std::uint32_t requester_pc) = 0;
};

struct AccessOutcome {
  Cycle latency = 0;
  /// The requesting core's own transaction had to abort because a
  /// speculative line would have been evicted (capacity).
  bool capacity_abort = false;
  /// The accessed line carries tx_write after the access: only then can the
  /// HTM write buffer hold data for it.
  bool written = false;
};

class MemorySystem : public LineEscapeSink {
 public:
  /// `machine` and `priv` (the heap's privacy map) must outlive this
  /// object, which registers itself as `priv`'s escape sink.
  MemorySystem(const MemConfig& cfg, MachineStats& stats, Machine& machine,
               PrivacyMap& priv);

  /// The HTM registers itself here; tests may substitute a recording fake.
  void set_conflict_sink(ConflictSink* sink) { sink_ = sink; }

  /// Optional observer (null: off, the default).
  void set_observer(obs::Observer* o) { obs_ = o; }

  /// True when `addr`'s line is still private to core `c` *and* resident in
  /// c's L1. Private resident lines are always E or M (no other core can
  /// have installed a copy), so such an access is a guaranteed hit — load
  /// or store — that reads and writes no shared simulator state. This is
  /// the local-step classification predicate.
  bool private_hit(CoreId c, Addr addr) const {
    const Addr line = line_addr(addr);
    // Const find reads the tag row only and leaves the MRU hint alone, so
    // classifying a step never changes what the step then does.
    const L1Cache& l1 = *l1_[c];
    return priv_.private_to(c, line) && l1.find(line) != nullptr;
  }

  /// LineEscapeSink: a line just went private->shared. Counts the escape
  /// and records the line_escape event; the line already has its directory
  /// entry.
  void on_line_escape(CoreId publisher, Addr line, CoreId owner,
                      std::uint32_t pc) override;

  /// Parked waits (DESIGN.md §13). Watches `line` for core c, which is about to park on polls of it. True
  /// when the line is resident in c's L1 and shared, so every further poll
  /// is an identical L1 hit until an invalidation of that line, which wakes
  /// c (Machine::wake). False, and no watch, otherwise.
  bool watch(CoreId c, Addr line);

  /// Wakes core c if it is parked (Machine::wake), ending its watch.
  void wake(CoreId c);

  /// Accounts `n` skipped load hits of core c on `line`: l1_hits and the
  /// L1's LRU clock advance by n, and the line, if still resident, carries
  /// the last of them.
  void settle_hits(CoreId c, Addr line, std::uint64_t n);

  /// Cached access by core `c`. When `transactional` is set, the touched
  /// line joins the core's read/write set and (on its first speculative
  /// access) records `pc`. The access must not cross a cache line.
  AccessOutcome access(CoreId c, Addr addr, unsigned size, AccessKind kind,
                       bool transactional, std::uint32_t pc);

  /// Lazy-HTM transactional store (future-work §8 of the paper): fetches
  /// the line like a load (remote copies survive; no conflicts fire) and
  /// marks it speculatively written locally. Conflict detection is deferred
  /// to publish_line() at commit.
  AccessOutcome tx_store_lazy(CoreId c, Addr addr, unsigned size,
                              std::uint32_t pc);

  /// Commit-time publication of one speculatively written line under lazy
  /// conflict detection: aborts remote transactions holding the line
  /// speculatively (committer wins), invalidates every other copy, and
  /// upgrades the committer's copy to Modified. Returns the latency.
  Cycle publish_line(CoreId c, Addr line);

  /// Line addresses currently marked tx_write in core c's L1, in tag-array
  /// (set-major) order. Clears `out` and fills it; commit paths call this
  /// once per transaction with a reusable scratch buffer. Walks the
  /// speculative-line log (O(footprint)), which it sorts in place — hence
  /// non-const — but simulated state is untouched.
  void speculative_written_lines(CoreId c, std::vector<Addr>& out);

  /// Line addresses of core c's whole speculative footprint (reads and
  /// writes), in tag-array order. Same contract and cost as
  /// speculative_written_lines; provenance captures footprints with it.
  void speculative_line_addrs(CoreId c, std::vector<Addr>& out);

  /// Ends speculation for core c. With `invalidate_written`, speculatively
  /// written lines are dropped (abort); otherwise they stay valid (commit).
  /// O(footprint): walks the speculative-line log, not the whole L1.
  void clear_speculative(CoreId c, bool invalidate_written);

  /// Cross-core abort stamp (requester-wins): invalidates the victim's
  /// speculatively WRITTEN *shared* lines so the requester's access misses
  /// the stale copy, but leaves the speculative marks, the log (and hence
  /// the footprint high-water mark), and every line still private to the
  /// victim untouched. A stamp executes during the *requester's* step, so
  /// it must not mutate anything the victim's local steps read —
  /// private-line residency above all (run-ahead stability, DESIGN §14). No
  /// requester can name a private line, so exempting them is safe; the
  /// victim's own abort() does the full drain at its next synchronizing
  /// step.
  void invalidate_speculative_writes(CoreId c);

  /// Number of speculative lines currently held by core c. O(1).
  unsigned speculative_lines(CoreId c) const;

  const MemConfig& config() const { return cfg_; }

  // --- introspection for tests ---
  const L1Line* peek_l1(CoreId c, Addr line) const { return l1_[c]->find(line); }
  /// Read-only view of a core's L1, for brute-force differential sweeps.
  const L1Cache& peek_l1_cache(CoreId c) const { return *l1_[c]; }
  SharerMask dir_sharers(Addr line) const;
  int dir_owner(Addr line) const;
  /// Aborts the process if a directory/L1 consistency invariant is broken.
  void check_invariants() const;

 private:
  struct DirEntry {
    SharerMask sharers;
    int owner = -1;
  };

  /// Checks a remote core's copy for a transactional conflict with a request
  /// of `kind`; aborts the remote transaction if so. Returns true when a
  /// conflict was found.
  bool conflict_check(CoreId remote, Addr line, AccessKind kind,
                      CoreId requester, std::uint32_t requester_pc);

  /// Invalidates `line` in `remote`'s L1 and in the directory entry `d`;
  /// the caller erases the entry when its sharer set empties.
  void invalidate_remote(CoreId remote, Addr line, DirEntry& d);

  /// Removes core c's copy of `line` from the directory bookkeeping.
  void dir_drop(CoreId c, Addr line);

  /// Directory lookup on behalf of core c, counted in its dir_probes stat.
  DirEntry* dir_probe(CoreId c, Addr line) {
    ++stats_.core(c).dir_probes;
    return dir_.find(line);
  }

  Cycle fill_latency(CoreId c, Addr line);

  MemConfig cfg_;
  MachineStats& stats_;
  Machine& machine_;
  PrivacyMap& priv_;
  ConflictSink* sink_ = nullptr;
  obs::Observer* obs_ = nullptr;
  std::vector<Addr> watch_;  // per core; 0 = none (never a heap line)
  std::vector<std::unique_ptr<L1Cache>> l1_;
  std::vector<std::unique_ptr<TagCache>> l2_;
  TagCache l3_;
  LineMap<DirEntry> dir_;
};

}  // namespace st::sim
