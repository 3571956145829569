// Experiment harness: runs a workload under a scheme on N simulated cores
// and aggregates the statistics every table/figure needs.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "check/scheduler.hpp"
#include "obs/export.hpp"
#include "stm/stm.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {

/// Everything that shapes one run. A RunOptions means exactly what its
/// fields say: nothing here reads the environment (options_from_env does,
/// for the binaries that offer the STAGTM_* knobs).
struct RunOptions {
  runtime::Scheme scheme = runtime::Scheme::kBaseline;
  unsigned threads = 16;
  std::uint64_t seed = 1;
  double ops_scale = 1.0;       // scales Workload::ops_per_thread()
  unsigned pc_tag_bits = 12;
  unsigned num_advisory_locks = 256;
  sim::Cycle lock_timeout = 2'000;
  /// HTM attempts before falling to the next tier (the STM tier when
  /// stm.enabled, else the global lock); 0 skips hardware transactions
  /// entirely. 10 is the paper's setting.
  unsigned max_retries = 10;
  unsigned history_len = 8;
  /// TL2 STM fallback tier (src/stm, DESIGN.md §16). Off by default, in
  /// which case simulated results are byte-identical to builds without the
  /// tier.
  stm::StmConfig stm;
  bool lazy_htm = false;  // commit-time conflict detection (paper §8)
  /// Host-side step fusion: run-ahead through local steps (sim/machine.hpp,
  /// DESIGN.md §13). Never changes simulated results — exists so
  /// differential tests can compare run-ahead vs single-stepped executions
  /// in one process.
  bool macrostep = true;
  stagger::PolicyConfig policy;  // addr_only is set automatically
  /// Override the instrumentation mode (default: what the scheme implies).
  /// kAll + kStaggered reproduces Table 3's naive instrument-everything
  /// comparison.
  std::optional<stagger::InstrumentMode> instrument_override;
  /// The observer (event trace + provenance), off unless trace.path is
  /// set. It never changes simulated results.
  obs::TraceConfig trace;
  /// Schedule perturbation (src/check); mode kNone (the default) keeps the
  /// deterministic schedule.
  check::SchedConfig sched;
  /// Checker mode: record the commit log, compute state_digest(), and
  /// report check_invariants() in RunResult::invariant_failure instead of
  /// aborting on it (verify()).
  bool checked = false;
  /// Deliberately compile out the speculative path's commit-time glock
  /// subscription (a real published-HTM-runtime bug class). Exists only so
  /// tests can prove the checker catches it. Never set outside tests.
  bool unsafe_skip_subscription = false;
};

struct RunResult {
  std::string workload;
  std::string scheme;
  unsigned threads = 0;
  sim::Cycle cycles = 0;
  std::uint64_t total_ops = 0;
  sim::CoreStats totals;
  /// Per-core counters + histograms (totals is their merge); serialized
  /// into STAGTM_JSON so sweeps carry the complete metric set per cell.
  std::vector<sim::CoreStats> per_core;
  /// Contention-abort records dropped past the bounded trace cap; nonzero
  /// means the LA/LP locality metrics below were computed from a
  /// truncated sample.
  std::uint64_t abort_trace_dropped = 0;
  double conflict_addr_locality = 0;  // Table 1 "LA"
  double conflict_pc_locality = 0;    // Table 1 "LP"
  unsigned static_loads_stores = 0;   // Table 3 statics
  unsigned static_anchors = 0;
  unsigned atomic_blocks = 0;
  /// Host wall-clock time this run took (not simulated time; host-side
  /// only — everything above is bit-reproducible).
  double wall_ms = 0;
  /// wall_ms split by phase of run_workload, host-side like wall_ms: IR
  /// build, stagger compile, TxSystem construction, Workload::setup, the
  /// simulation, and the invariant check. The rest of wall_ms is task
  /// creation, observer export and result collection.
  struct PhaseMs {
    double build = 0;
    double compile = 0;
    double init = 0;
    double setup = 0;
    double simulate = 0;
    double verify = 0;
  };
  PhaseMs phase_ms;
  /// Scheduler events the run took (sim::Machine::events). Host-side like
  /// wall_ms: it counts how the run was stepped, not what it simulated.
  std::uint64_t sched_events = 0;
  /// CoreTask::step calls the run took (sim::Machine::steps), host-side.
  std::uint64_t sched_steps = 0;
  /// The observer file this run wrote (empty: observer off) and its
  /// provenance summary (host-side observer output, excluded from
  /// differential comparisons like wall_ms).
  std::string trace_path;
  obs::ProvSummary prov;
  /// Commit log (append order = serialization order); set in checked mode.
  std::shared_ptr<const runtime::CommitLog> commit_log;
  /// Workload::state_digest() of the final state (checked mode; 0 when the
  /// workload does not implement it or invariants already failed).
  std::uint64_t state_digest = 0;
  /// First invariant violation found by Workload::check_invariants()
  /// (checked mode; empty when all invariants hold).
  std::string invariant_failure;

  double throughput() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_ops) /
                             static_cast<double>(cycles);
  }
  double aborts_per_commit() const;
  double wasted_over_useful() const;
  /// Fraction of committed atomic blocks that ran irrevocably (Table 1 %I).
  double pct_irrevocable() const;
  /// Fraction of cycles spent in transactional mode (Table 4 %TM).
  double pct_tm() const;
  /// Anchor-identification accuracy (Table 3).
  double anchor_accuracy() const;
  /// Mean IR instructions retired per committed transaction (Table 3 u-ops).
  double instrs_per_txn() const;
  /// Mean executed ALPs per committed transaction (Table 3 anchs/txn).
  double alps_per_txn() const;
  /// Relative energy estimate (§6.3): executing cycles at full power,
  /// lock-wait spinning at ~30%, backoff idling at ~20%.
  double energy_estimate() const;
  /// Host interpreter throughput in millions of IR instructions per
  /// wall-clock second (includes aborted attempts; 0 when unmeasurable).
  double host_minstr_per_s() const;
};

/// Runs one experiment end-to-end: build IR -> compile with the scheme's
/// instrumentation -> set up the machine -> run every thread's schedule ->
/// verify -> aggregate.
RunResult run_workload(Workload& wl, const RunOptions& opt);
RunResult run_workload(const std::string& name, const RunOptions& opt);

/// Exits 2 with "<knob> must be at least 1/N ..." when `ops_scale` leaves
/// `wl` no op per thread (run_workload runs at least one). `knob` names
/// where the scale came from: "--scale" or "STAGTM_SCALE".
void check_scale(const Workload& wl, double ops_scale, const char* knob);

/// The RuntimeConfig run_workload builds from `opt` (exposed so the
/// serializability oracle can construct an identically-configured reference
/// machine for serial replay).
runtime::RuntimeConfig make_runtime_config(const RunOptions& opt);

/// RunOptions{} with the run knobs applied: STAGTM_MAX_RETRIES,
/// STAGTM_STM / STAGTM_STM_RETRIES / STAGTM_STM_ORECS and STAGTM_TRACE /
/// STAGTM_TRACE_CAP. Exits 2 on a malformed value. Only the binaries call
/// it (the bench sweeps, stagtm, stagtm-check), so a library run is a
/// function of its RunOptions alone.
RunOptions options_from_env();

}  // namespace st::workloads
