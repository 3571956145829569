// TxSystem: wires simulator, HTM, compiled program, and the staggered-
// transactions runtime together for one experiment run.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "htm/htm.hpp"
#include "obs/observer.hpp"
#include "sim/machine.hpp"
#include "stagger/advisory_locks.hpp"
#include "stagger/cpc_map.hpp"
#include "stagger/instrument.hpp"
#include "stagger/policy.hpp"
#include "stm/stm.hpp"

namespace st::runtime {

/// Which contention-reduction scheme the runtime applies (Fig. 7 legend,
/// plus the §7 related-work baseline).
enum class Scheme : std::uint8_t {
  kBaseline,     // plain HTM with global-lock fallback
  kAddrOnly,     // fixed entry ALP, precise mode only
  kStaggered,    // paper scheme with hardware conflicting-PC tags
  kStaggeredSW,  // paper scheme with the software CPC map (§4)
  kTxSched,      // proactive transaction scheduling (Blake et al., §7):
                 // serialize *entire* predicted-conflicting transactions
};

const char* scheme_name(Scheme s);

/// Matches the instrumentation the scheme requires.
stagger::InstrumentMode instrument_mode_for(Scheme s);

/// One committed atomic block, as recorded for the serializability oracle
/// (src/check/oracle.hpp). Entries are appended in simulated commit order —
/// the discrete-event loop executes steps in exactly the order their
/// effects become visible, so append order IS the serialization order the
/// oracle replays.
struct CommitRecord {
  sim::Cycle cycle = 0;  // commit time (reporting only; order is the log)
  sim::CoreId core = 0;
  std::uint16_t ab_id = 0;
  std::uint16_t attempts = 0;
  bool irrevocable = false;
  /// Execution tier that committed the block: 0 = HTM, 1 = irrevocable
  /// global lock (mirrors `irrevocable`), 2 = STM fallback.
  std::uint8_t tier = 0;
  std::uint64_t result = 0;
  std::vector<std::uint64_t> args;
};
using CommitLog = std::vector<CommitRecord>;

struct RuntimeConfig {
  unsigned cores = 16;
  sim::MemConfig mem;  // mem.cores is forced to `cores`
  Scheme scheme = Scheme::kBaseline;
  /// HTM attempts before falling back (STM tier if enabled, else the
  /// irrevocable glock). 0 skips hardware transactions entirely. The
  /// workload harness defaults this from STAGTM_MAX_RETRIES.
  unsigned max_retries = 10;
  /// TL2 STM fallback tier between HTM retries and the glock (src/stm).
  /// Disabled by default — the executor, heap layout, and every simulated
  /// result are byte-identical to builds that predate the tier. The
  /// workload harness fills it from STAGTM_STM{,_RETRIES,_ORECS}.
  stm::StmConfig stm;
  unsigned num_advisory_locks = 256;
  sim::Cycle lock_timeout = 2'000;
  sim::Cycle backoff_base = 64;    // Polite: mean delay = base * attempt
  unsigned history_len = 8;
  stagger::PolicyConfig policy;
  std::size_t arena_bytes = 16u << 20;
  std::uint64_t seed = 1;
  /// Host-side interpreter macro-stepping; simulated results are identical
  /// either way (see sim::Machine::fuse_budget). Off single-steps every
  /// instruction: the reference the differential tests compare against.
  bool macrostep = true;
  /// The observer: event trace plus conflict provenance
  /// (obs/observer.hpp). Nothing is allocated unless trace.enabled(), and
  /// simulated results are CI-enforced identical with it on and off.
  /// Defaults OFF here; the workload harness fills it from STAGTM_TRACE.
  obs::TraceConfig trace;
  /// Record every committed atomic block (identity, args, result, commit
  /// cycle) into TxSystem's CommitLog for the serializability oracle. Off
  /// by default: no log is allocated and the commit path is unchanged.
  bool record_commits = false;
  /// Checker-validation backdoor: compile out the lazy global-lock
  /// subscription read at commit. This deliberately reintroduces the
  /// unserializable executions lazy subscription is known to admit (Dice &
  /// Harris) so tests can prove the oracle catches them. NEVER set outside
  /// the checker's broken-build tests.
  bool unsafe_skip_subscription = false;
};

class TxSystem {
 public:
  /// `prog` must have been compiled with instrument_mode_for(cfg.scheme).
  TxSystem(const RuntimeConfig& cfg, stagger::CompiledProgram& prog);

  sim::Machine& machine() { return machine_; }
  sim::Heap& heap() { return heap_; }
  sim::PrivacyMap& privacy() { return heap_.privacy(); }
  sim::MemorySystem& mem() { return mem_; }
  htm::HtmSystem& htm() { return htm_; }
  sim::MachineStats& stats() { return stats_; }
  stagger::AdvisoryLockTable& locks() { return locks_; }
  stagger::CpcMap& cpc() { return cpc_; }
  stagger::LockingPolicy& policy() { return policy_; }
  stagger::CompiledProgram& program() { return prog_; }
  const RuntimeConfig& config() const { return cfg_; }
  Xoshiro256ss& rng(sim::CoreId c) { return rngs_[c]; }

  stagger::ABContext& abctx(sim::CoreId c, unsigned ab_id);

  sim::Addr glock_addr() const { return glock_; }

  /// Null unless cfg.stm.enabled — with the tier off no orec table is
  /// allocated and no STM code runs (pure-off invariance, CI-enforced).
  stm::StmSystem* stm() { return stm_.get(); }

  /// Null unless cfg.trace.enabled(); every subsystem records through
  /// this, the harness exports it.
  obs::Observer* observer() { return obs_.get(); }

  /// Null unless cfg.record_commits; the TxExecutor appends on commit.
  CommitLog* commit_log() { return commit_log_.get(); }

  /// Runs every installed core task to completion (or until `max_cycles`
  /// of global time elapse); returns elapsed cycles.
  sim::Cycle run(sim::Cycle max_cycles = ~sim::Cycle{0});

 private:
  // Declaration order is construction order: each collaborator takes the
  // ones before it by reference, and the heap layout (lock words, CPC
  // tables, then the glock) follows from it.
  RuntimeConfig cfg_;
  stagger::CompiledProgram& prog_;
  std::unique_ptr<obs::Observer> obs_;
  std::unique_ptr<CommitLog> commit_log_;
  sim::MachineStats stats_;
  sim::Machine machine_;
  sim::Heap heap_;
  sim::MemorySystem mem_;
  htm::HtmSystem htm_;
  stagger::AdvisoryLockTable locks_;
  stagger::CpcMap cpc_;
  stagger::LockingPolicy policy_;
  std::vector<Xoshiro256ss> rngs_;
  // abctx_[core * num_abs + ab]
  std::vector<std::unique_ptr<stagger::ABContext>> abctx_;
  sim::Addr glock_ = 0;
  std::unique_ptr<stm::StmSystem> stm_;  // null when the tier is off
};

}  // namespace st::runtime
