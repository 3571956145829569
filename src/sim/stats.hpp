// Statistics gathered by the simulator, the HTM, and the runtime.
//
// Counters live here (rather than in each subsystem) so that benchmark
// harnesses can snapshot and diff a single object, and so that the
// locality-of-contention metrics of Table 1 (LA / LP) can be computed from
// one abort trace.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/histogram.hpp"
#include "sim/types.hpp"

namespace st::sim {

struct CoreStats {
  // Transaction outcomes.
  std::uint64_t commits = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t aborts_explicit = 0;
  std::uint64_t aborts_glock = 0;  // lazy-subscription aborts
  std::uint64_t irrevocable_entries = 0;

  // STM fallback tier (src/stm). All zero unless STAGTM_STM=on.
  std::uint64_t stm_commits = 0;            // attempts that committed in STM
  std::uint64_t stm_aborts_validation = 0;  // orec precheck / revalidation
  std::uint64_t stm_aborts_lock = 0;        // orec-lock acquisition timed out
  std::uint64_t stm_aborts_glock = 0;       // glock observed mid-attempt
  std::uint64_t stm_orec_waits = 0;         // lock-acquire steps that spun
  std::uint64_t stm_lock_acquires = 0;      // orec write-locks taken

  // Cycle breakdown.
  std::uint64_t cycles_useful_tx = 0;    // attempts that committed
  std::uint64_t cycles_wasted_tx = 0;    // attempts that aborted
  std::uint64_t cycles_lock_wait = 0;    // spinning on an advisory lock
  std::uint64_t cycles_backoff = 0;      // polite backoff between retries
  std::uint64_t cycles_irrevocable = 0;  // global-lock serial execution
  std::uint64_t cycles_nontx = 0;        // outside transactions

  // Execution volume.
  std::uint64_t tx_instrs = 0;   // IR instructions retired inside txns
  std::uint64_t tx_mem_ops = 0;  // transactional loads/stores issued
  // Host-interpreter volume: every IR instruction the interpreter executed,
  // including attempts that later aborted. Feeds the host-throughput
  // (Minstr/s) metric; does not affect any simulated result.
  std::uint64_t interp_instrs = 0;

  // Instrumentation behaviour.
  std::uint64_t alp_executed = 0;        // ALPoint sites reached
  std::uint64_t alp_acquires = 0;        // advisory locks taken
  std::uint64_t alp_timeouts = 0;        // gave up waiting
  std::uint64_t anchor_id_correct = 0;   // abort -> anchor mapping matched truth
  std::uint64_t anchor_id_wrong = 0;

  // Memory system.
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  // Host-side diagnostics of the memory system: directory
  // lookups issued on this core's behalf, and the largest transactional
  // footprint (speculative-line log high-water mark, in lines) seen at a
  // commit/abort. Neither affects any simulated result.
  std::uint64_t dir_probes = 0;
  std::uint64_t spec_log_hwm = 0;

  // Privacy classification (sim/privacy.hpp): accesses that touched a line
  // still private to this core (hit/miss split), and private->shared line
  // escapes triggered by this core's publications. Like dir_probes they
  // observe the simulation without affecting any simulated result.
  std::uint64_t priv_hits = 0;
  std::uint64_t priv_misses = 0;
  std::uint64_t priv_escapes = 0;

  // Shape metrics (log2 histograms; the obs metrics registry names them and
  // the bench harness serializes them into STAGTM_JSON). Like every other
  // field here they only observe the simulation — nothing reads them back.
  Log2Hist h_tx_cycles;        // cycles per committed attempt
  Log2Hist h_tx_retries;       // attempts needed per commit (1 = first try)
  Log2Hist h_lock_hold;        // advisory-lock hold time, cycles
  Log2Hist h_spec_footprint;   // speculative lines at commit
  Log2Hist h_tx_backoff;       // polite-backoff cycles per backed-off attempt

  std::uint64_t total_aborts() const {
    return aborts_conflict + aborts_capacity + aborts_explicit + aborts_glock +
           stm_aborts_validation + stm_aborts_lock + stm_aborts_glock;
  }
};

/// One record per contention abort; feeds the LA/LP locality metrics and the
/// anchor-identification accuracy measurement.
struct AbortRecord {
  CoreId victim = 0;
  Addr conflict_line = 0;
  std::uint32_t true_first_pc = 0;  // ground truth from the simulator
  std::uint16_t pc_tag = 0;         // what 12-bit hardware would report
  Cycle at = 0;
};

class MachineStats {
 public:
  explicit MachineStats(unsigned cores) : per_core_(cores) {}

  CoreStats& core(CoreId c) { return per_core_[c]; }
  const CoreStats& core(CoreId c) const { return per_core_[c]; }
  unsigned cores() const { return static_cast<unsigned>(per_core_.size()); }

  /// All per-core stats merged by each metric's registry rule
  /// (obs::merge_core_stats).
  CoreStats total() const;

  void record_abort(const AbortRecord& r);
  const std::vector<AbortRecord>& abort_trace() const { return abort_trace_; }
  /// Contention aborts that fell off the end of the capped trace. Nonzero
  /// means LA/LP below were computed from a truncated sample (they warn on
  /// stderr, once per process, when that happens).
  std::uint64_t abort_trace_dropped() const { return abort_trace_dropped_; }

  /// Fraction of contention aborts attributable to the single most frequent
  /// conflicting line ("locality of contention addresses", Table 1 LA).
  double conflict_addr_locality() const;
  /// Fraction attributable to the top-3 initial-access PCs (Table 1 LP).
  /// Top-3 rather than top-1: a program has one dominant anchor per atomic
  /// block, and the paper judges locality per block.
  double conflict_pc_locality() const;

  void clear();

 private:
  double locality_guarded(double value) const;

  std::vector<CoreStats> per_core_;
  std::vector<AbortRecord> abort_trace_;
  std::uint64_t abort_trace_dropped_ = 0;
  static constexpr std::size_t kTraceCap = 1u << 20;
};

}  // namespace st::sim
