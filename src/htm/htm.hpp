// ASF-style best-effort hardware transactional memory.
//
// Speculative stores are buffered per core and drained to the heap at
// commit; conflict detection is eager requester-wins, performed by the
// memory system on coherence requests (see sim/memory_system.hpp). On a
// contention abort the hardware reports the conflicting line address and
// the (truncated) PC of the instruction that first touched that line in the
// victim transaction — the paper's %rbx convention. Nontransactional loads
// and stores escape isolation: they bypass the read/write sets, see the
// latest committed values, and their stores take effect immediately and
// survive aborts (the feature advisory locks are built on).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/observer.hpp"
#include "sim/heap.hpp"
#include "sim/machine.hpp"
#include "sim/memory_system.hpp"
#include "sim/stats.hpp"
#include "sim/write_buffer.hpp"

namespace st::htm {

using sim::Addr;
using sim::CoreId;
using sim::Cycle;

enum class AbortCause : std::uint8_t {
  None,
  Conflict,   // remote coherence request hit our read/write set
  Capacity,   // read/write set overflowed an L1 set
  Explicit,   // software xabort
  Glock,      // global fallback lock observed held at commit (subscription)
  // STM-tier causes (src/stm): raised by the executor, never by the HTM
  // pipeline itself. Kept in this enum so trace/blame records share one
  // cause namespace across tiers.
  StmValidation,  // orec precheck / read-set revalidation failed
  StmLock,        // orec-lock acquisition timed out (writer contention)
  StmGlock,       // glock observed held mid-attempt (irrevocable running)
};

struct AbortInfo {
  AbortCause cause = AbortCause::None;
  Addr conflict_line = 0;
  bool pc_tag_valid = false;
  std::uint16_t pc_tag = 0;        // architecturally visible (12-bit default)
  std::uint32_t true_first_pc = 0; // simulator ground truth, for accuracy stats
  CoreId aborter = 0;
};

class HtmSystem final : public sim::ConflictSink {
 public:
  /// Built last, over the memory system (whose conflict sink it becomes)
  /// and the heap whose privacy map it feeds publications to; every
  /// argument must outlive it.
  HtmSystem(sim::Machine& machine, sim::Heap& heap, sim::MemorySystem& mem,
            sim::MachineStats& stats);

  /// Global simulated time (Machine::now), which timestamps abort records
  /// and advisory-lock hold times.
  Cycle clock_now() const { return machine_.now(); }

  /// Optional observer (obs/observer.hpp). The HTM owns the blame
  /// pipeline's hardware half: conflict/capacity stamps, footprint capture
  /// (just before speculative state is cleared), and abort finalization
  /// with heap/privacy attribution. Null disables; every site is guarded so
  /// simulated results are unchanged either way.
  void set_observer(obs::Observer* o) { obs_ = o; }

  /// The HTM owns every publication point through which an address can
  /// leave a core's private domain (sim/privacy.hpp): plain and
  /// nontransactional stores to shared memory, commit write-buffer drains,
  /// and the host result/argument channel below.
  ///
  /// Host-channel publication: `v` is a committed atomic-block result or a
  /// host-dispatched op argument, visible outside core c's private domain
  /// (the host can hand it to any core). Escapes the block it addresses, if
  /// any.
  void publish_host_value(CoreId c, std::uint64_t v) {
    priv_.publish_value(c, v, 0);
  }

  // ---- transaction lifecycle ----
  void begin(CoreId c);
  bool active(CoreId c) const { return tx_[c].active; }
  /// Run-ahead contract (sim/machine.hpp, DESIGN.md §13): pending_abort is
  /// set only by conflict/capacity detection inside memory operations —
  /// synchronizing steps that the machine executes in (clock, id) order —
  /// and cleared only by the victim core's own abort(). The victim observes
  /// the stamp only at its next boundary instruction (TxExecutor::run_step),
  /// never between pure-register instructions, so abort timing is a
  /// deterministic function of the victim's instruction stream: identical
  /// however far the victim ran ahead of the stamping core.
  bool pending_abort(CoreId c) const { return tx_[c].pending_abort; }

  /// Finalizes an abort: discards the write buffer, rolls back allocations,
  /// clears speculative cache state, bumps counters. For self-inflicted
  /// aborts pass the cause; for asynchronous (conflict/capacity) aborts the
  /// recorded pending cause wins. Returns the abort info.
  AbortInfo abort(CoreId c, AbortCause self_cause = AbortCause::None);

  /// Attempts to commit. Fails (returns false) iff an abort is pending, in
  /// which case the caller must invoke abort(). Under lazy conflict
  /// detection the commit publishes the write set (aborting conflicting
  /// transactions — committer wins) and reports the publication latency.
  bool commit(CoreId c, Cycle* publish_latency = nullptr);

  /// True when the underlying memory system defers transactional conflicts
  /// to commit time.
  bool lazy() const { return mem_.config().lazy_conflicts; }

  // ---- memory operations ----
  struct MemOp {
    std::uint64_t value = 0;
    Cycle latency = 0;
    bool ok = true;  // false: the access aborted the running transaction
  };

  /// Transactional access (core must be in a transaction).
  MemOp load(CoreId c, Addr a, unsigned size, std::uint32_t pc);
  MemOp store(CoreId c, Addr a, std::uint64_t v, unsigned size, std::uint32_t pc);

  /// Plain cached access (core must NOT be in a transaction); used for
  /// setup code, non-transactional program phases, and irrevocable mode.
  /// `pc` only tags the privacy-escape trace event (0 = unknown site).
  MemOp plain_load(CoreId c, Addr a, unsigned size);
  MemOp plain_store(CoreId c, Addr a, std::uint64_t v, unsigned size,
                    std::uint32_t pc = 0);

  /// Nontransactional access from inside (or outside) a transaction (§4).
  MemOp nontx_load(CoreId c, Addr a, unsigned size);
  MemOp nontx_store(CoreId c, Addr a, std::uint64_t v, unsigned size);

  /// Atomic compare-and-swap built from nontransactional accesses; the
  /// primitive advisory locks and the global fallback lock use.
  struct CasResult {
    bool success = false;
    std::uint64_t observed = 0;
    Cycle latency = 0;
  };
  CasResult nontx_cas(CoreId c, Addr a, std::uint64_t expect,
                      std::uint64_t desired);

  /// Heap allocation inside a transaction; rolled back if the transaction
  /// aborts. Outside a transaction it is a plain allocation. `pc` is the
  /// allocation-site PC forwarded to the heap (recorded only when site
  /// tracking is on; 0 = unknown).
  Addr tx_alloc(CoreId c, std::size_t size, std::uint32_t pc = 0);
  /// Deferred free: performed at commit, cancelled on abort.
  void tx_free(CoreId c, Addr a);

  /// Distinct cache lines buffered in the write set, sorted ascending
  /// (scratch reuse — valid until the next call). The hybrid executor
  /// inspects the STM orecs covering these at commit (DESIGN.md §16).
  const std::vector<Addr>& written_lines(CoreId c);

  // sim::ConflictSink
  void on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                         std::uint16_t pc_tag, std::uint32_t first_pc,
                         CoreId requester, std::uint32_t requester_pc) override;

  sim::Heap& heap() { return heap_; }
  sim::MemorySystem& mem() { return mem_; }
  sim::MachineStats& stats() { return stats_; }

 private:
  struct TxState {
    bool active = false;
    bool pending_abort = false;
    AbortInfo info;
    sim::WriteBuffer wb;
    std::vector<Addr> allocs;
    std::vector<Addr> deferred_frees;
  };

  void mark_capacity_abort(CoreId c, Addr a);
  /// The attempt's speculative line addresses, for the observer's
  /// footprint capture (reuses one scratch vector).
  const std::vector<Addr>& footprint(CoreId c) {
    mem_.speculative_line_addrs(c, fp_scratch_);
    return fp_scratch_;
  }
  void drain_wb(CoreId c, TxState& tx);
  /// Publication check for a store of `v` to `dest` by core c: a store
  /// whose destination stays inside c's own private domain publishes
  /// nothing (only c can read it back); anything else makes `v` visible to
  /// other cores.
  void publish_stored_value(CoreId c, Addr dest, std::uint64_t v,
                            std::uint32_t pc) {
    if (priv_.private_to(c, dest)) return;
    priv_.publish_value(c, v, pc);
  }

  const sim::Machine& machine_;
  sim::Heap& heap_;
  sim::PrivacyMap& priv_;
  sim::MemorySystem& mem_;
  sim::MachineStats& stats_;
  obs::Observer* obs_ = nullptr;
  std::vector<TxState> tx_;
  std::vector<Addr> publish_scratch_;  // reused across lazy commits
  std::vector<Addr> fp_scratch_;       // reused across footprint captures
  std::vector<Addr> written_scratch_;  // reused across written_lines calls
};

}  // namespace st::htm
