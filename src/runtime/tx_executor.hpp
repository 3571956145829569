// TxExecutor: runs one atomic block on one simulated core, handling the
// full hardware-transaction lifecycle:
//
//   begin -> speculative execution (with ALPoints) -> lazy global-lock
//   subscription -> commit
//     \-> abort -> advisory-lock release -> locking-policy update ->
//         polite backoff -> retry (up to max_retries)
//           \-> STM tier (STAGTM_STM=on, src/stm): TL2 attempt ->
//               orec lock acquisition -> validate/commit, up to
//               STAGTM_STM_RETRIES attempts
//             \-> global-lock acquisition -> irrevocable execution
//
// With the STM tier off (the default) the middle stage vanishes: retries
// fall straight to the global lock, byte-identical to builds without
// src/stm.
//
// The executor is a resumable state machine: each step() performs one
// boundary instruction, one spin/backoff interval, or one fused run of
// pure-register instructions (bounded by the caller-provided cycle budget,
// see interp::Interp::step), so the discrete-event scheduler interleaves
// cores faithfully.
#pragma once

#include <vector>

#include "interp/interp.hpp"
#include "runtime/tx_system.hpp"

namespace st::runtime {

class TxExecutor {
 public:
  TxExecutor(TxSystem& sys, sim::CoreId core);
  ~TxExecutor();
  TxExecutor(const TxExecutor&) = delete;
  TxExecutor& operator=(const TxExecutor&) = delete;

  /// Begins executing atomic block `ab_id` with the given arguments.
  void start(unsigned ab_id, std::vector<std::uint64_t> args);

  bool idle() const { return state_ == State::kIdle; }
  bool finished() const { return state_ == State::kFinished; }
  /// Return value of the committed atomic block; resets to idle.
  std::uint64_t take_result();

  /// Advances the executor; call only while !idle() && !finished().
  /// `budget` bounds how many cycles a fused interpreter run may consume
  /// (pass sim::Machine::fuse_budget(); 1 forces single-stepping). One
  /// step may retire several pure-register instructions, but boundary
  /// instructions still execute one per step.
  sim::Cycle step(sim::Cycle budget = 1);

  /// True when the next step() call is guaranteed local: it touches
  /// nothing outside this core's interpreter frames, own L1, own stats row,
  /// and lines still private to this core. Pure-register runs always
  /// qualify; with the STAGTM_PRIVATE classification on, so do calls,
  /// inner returns, and loads/stores that hit a line private to this core
  /// (see step_commutes). Everything else (begin/commit/abort handling,
  /// shared-line accesses, lock spins, backoff) is a synchronizing step.
  /// The machine's run-ahead (sim/machine.hpp) consults this through
  /// CoreTask::next_step_local.
  bool next_step_local() const;

  /// Monotone count of interpreter instructions this executor has retired
  /// across all attempts and ops, including doomed (later-aborted) ones.
  /// Host-side observability only (profilers difference it around step()
  /// calls to attribute retired work); never feeds back into simulated
  /// results.
  std::uint64_t instrs_retired() const {
    switch (state_) {
      case State::kRunning: return instrs_done_ + spec_interp_->instrs_executed();
      case State::kStmRunning:
        return instrs_done_ + stm_interp_->instrs_executed();
      case State::kIrrevRunning:
        return instrs_done_ + plain_interp_->instrs_executed();
      default:
        return instrs_done_;
    }
  }

  sim::CoreId core() const { return core_; }
  TxSystem& system() { return sys_; }

 private:
  enum class State {
    kIdle,
    kBeginAttempt,
    kRunning,
    kStmBeginAttempt,  // STM tier (src/stm): waiting to begin an attempt
    kStmRunning,       // executing under the TL2 read/write-set protocol
    kStmLockAcquire,   // locking write-set orecs, one per step
    kStmCommit,        // validate + write back (single atomic step)
    kGlockAcquire,
    kIrrevRunning,
    kFinished,
  };

  class SpecEnv;
  class StmEnv;
  class PlainEnv;

  /// Whether the next step commutes with every synchronizing step another
  /// core could take: it reads and writes only this-core-local state. This
  /// is the knob-INDEPENDENT core of the local-step classification, and it
  /// also gates pending-abort observation in run_step — both the gate and
  /// the classifier must use the same predicate, or enabling the knob
  /// would change where a doomed transaction notices its abort. Valid only
  /// in kRunning / kIrrevRunning.
  bool step_commutes() const;

  sim::Cycle begin_attempt();
  /// kTxSched: whole-transaction serialization lock (§7 comparison). The
  /// lock key is synthesized from the atomic-block id.
  sim::Addr sched_lock_key() const;
  sim::Cycle run_step(sim::Cycle budget);
  sim::Cycle commit_sequence();
  sim::Cycle handle_abort(htm::AbortCause self_cause);
  sim::Cycle glock_step();
  sim::Cycle irrev_step(sim::Cycle budget);
  void resolve_and_train(const htm::AbortInfo& info);

  // ---- STM tier (valid only when sys_.stm() != nullptr) ----
  sim::Cycle stm_begin_attempt();
  sim::Cycle stm_run_step(sim::Cycle budget);
  sim::Cycle stm_lock_step();
  sim::Cycle stm_commit_step();
  /// Abort epilogue for the STM tier: guarded orec release, allocation
  /// rollback, stats/trace/prov/policy bookkeeping, then retry (with
  /// backoff) or fall to the glock.
  sim::Cycle stm_abort(htm::AbortCause cause);
  /// HTM + STM attempts so far for this block (what h_tx_retries, the
  /// commit log, and backoff scaling count).
  unsigned total_attempts() const { return attempts_ + stm_attempts_; }

  /// ALPoint protocol shared by the HTM and STM execution environments
  /// (Fig. 5 firing rule + advisory-lock spin). `check_pending` gates the
  /// HTM pending-abort observation; STM attempts have no asynchronous
  /// aborts, so they pass false.
  interp::ExecEnv::AlpResult do_alpoint(std::uint32_t alp_id,
                                        sim::Addr data_addr,
                                        bool check_pending);

  static constexpr sim::Cycle kBeginCost = 5;
  static constexpr sim::Cycle kCommitCost = 10;
  // An abort costs a pipeline flush, register-checkpoint restore, and the
  // software handler's dispatch before the retry loop resumes.
  static constexpr sim::Cycle kAbortHandlerCost = 120;
  static constexpr sim::Cycle kSpinPad = 8;

  TxSystem& sys_;
  sim::CoreId core_;
  /// Cached MemorySystem::private_classification() (config is immutable
  /// after construction): gates only whether private-line hits classify as
  /// local, never what they do.
  bool private_local_ = false;
  std::unique_ptr<SpecEnv> spec_env_;
  std::unique_ptr<StmEnv> stm_env_;      // null when the STM tier is off
  std::unique_ptr<PlainEnv> plain_env_;
  std::unique_ptr<interp::Interp> spec_interp_;
  std::unique_ptr<interp::Interp> stm_interp_;  // null when the tier is off
  std::unique_ptr<interp::Interp> plain_interp_;

  State state_ = State::kIdle;
  unsigned ab_id_ = 0;
  const ir::Function* func_ = nullptr;
  std::vector<std::uint64_t> args_;
  stagger::ABContext* ctx_ = nullptr;
  unsigned attempts_ = 0;      // HTM attempts this block
  unsigned stm_attempts_ = 0;  // STM attempts this block
  /// STM-attempt allocations (rolled back on abort) and deferred frees
  /// (performed at commit, dropped on abort) — the software mirror of the
  /// HTM's tx_alloc/tx_free bookkeeping, which only arms inside a hardware
  /// transaction.
  std::vector<sim::Addr> stm_allocs_;
  std::vector<sim::Addr> stm_frees_;
  sim::Cycle attempt_cycles_ = 0;
  sim::Cycle lock_wait_accum_ = 0;  // current ALP acquire sequence
  sim::Addr alp_target_ = 0;        // address being advisory-locked
  bool spinning_on_alp_ = false;
  bool last_step_lock_wait_ = false;
  std::uint64_t result_ = 0;
  /// Instructions retired by completed attempts (committed, aborted, or
  /// irrevocable); the live interpreter's count is added on top in
  /// instrs_retired(). Bumped at exactly the points where the per-attempt
  /// interpreter counters are folded into MachineStats, i.e. before any
  /// interpreter restart can reset them.
  std::uint64_t instrs_done_ = 0;

  friend class SpecEnv;
  friend class StmEnv;
  friend class PlainEnv;
};

}  // namespace st::runtime
