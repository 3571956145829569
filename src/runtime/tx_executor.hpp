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
// src/stm. next_tier() is that ladder, and every spin (ALPoint advisory
// lock, kTxSched lock, glock, STM orecs) is one Wait polled by poll_wait()
// (DESIGN.md §6, "Executor tiers and waits").
//
// The executor is a resumable state machine: each step() performs one
// spin/backoff interval, or one boundary instruction and/or one fused run
// of pure-register instructions after it (bounded by the caller-provided
// cycle budget, see interp::Interp::step), so the discrete-event scheduler
// interleaves cores faithfully.
#pragma once

#include <limits>
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

  bool finished() const { return state_ == State::kFinished; }
  /// Return value of the committed atomic block; resets to idle.
  std::uint64_t take_result();

  /// Advances the executor; call only while !idle() && !finished().
  /// `budget` bounds how many cycles a fused interpreter run may consume
  /// (pass sim::Machine::fuse_budget(); 1 forces single-stepping). One
  /// step may retire several pure-register instructions, but at most one
  /// boundary instruction, and only as its first.
  sim::Cycle step(sim::Cycle budget = 1);

  /// True when the next step() call is guaranteed local: it touches
  /// nothing outside this core's interpreter frames, own L1, own stats row,
  /// and lines still private to this core. Pure-register runs always
  /// qualify, and so do calls, inner returns, and private-line loads and
  /// stores of a hardware or irrevocable attempt (see step_commutes).
  /// Everything else (begin/commit/abort handling, shared-line accesses,
  /// waits, backoff) synchronizes. The machine's run-ahead
  /// (sim/machine.hpp) consults this through CoreTask::next_step_local.
  bool next_step_local() const;

  /// Interpreter instructions retired across all attempts and ops,
  /// doomed ones included (an STM attempt's count drops out between its
  /// last instruction and its commit or abort). Host-side observability
  /// only: profilers difference it around step() calls.
  std::uint64_t instrs_retired() const {
    return instrs_done_ + (live_ != nullptr ? live_->instrs_executed() : 0);
  }

 private:
  enum class State {
    kIdle,
    kBeginAttempt,     // HTM tier: (kTxSched lock wait, then) xbegin
    kRunning,          // speculative execution; ALPoints may wait here
    kStmBeginAttempt,  // STM tier: wait for a free glock, then begin
    kStmRunning,       // executing under the TL2 read/write-set protocol
    kStmLockAcquire,   // locking write-set orecs, one per step (orec wait)
    kStmCommit,        // validate + write back (single atomic step)
    kGlockAcquire,     // glock CAS wait before irrevocable execution
    kIrrevRunning,
    kFinished,
  };

  /// Commit tiers as the observer and commit log number them.
  enum Tier : std::uint8_t { kTierHtm = 0, kTierIrrev = 1, kTierStm = 2 };

  /// The lock wait in progress, if any; poll_wait() ends it on
  /// acquisition or timeout.
  struct Wait {
    enum class On : std::uint8_t {
      kNone,
      kAlp,        // an ALPoint's advisory lock (key = data address)
      kSched,      // kTxSched whole-transaction lock (key = lock address)
      kGlock,      // CAS the global lock before irrevocable execution
      kGlockFree,  // global lock free before an STM attempt begins
      kOrec,       // every STM write-set orec, one acquisition per poll
    } on = On::kNone;
    sim::Addr key = 0;
    sim::Cycle accum = 0;  // kSpinPad-padded poll latencies so far
    sim::Cycle timeout = std::numeric_limits<sim::Cycle>::max();
    sim::Cycle parked_at = 0;  // first skipped poll's slot; 0: not parked
    std::uint64_t seen = 0;    // the lock word the parking poll saw
  };
  /// One poll_wait() outcome. kSpun: `cycles` is the whole step, already
  /// charged as lock wait. kGot/kTimedOut: the poll's latency, uncharged.
  enum class Poll : std::uint8_t { kSpun, kGot, kTimedOut };
  struct Polled {
    Poll status;
    sim::Cycle cycles;
  };

  class SpecEnv;
  class StmEnv;
  class PlainEnv;

  /// Whether the next step touches only this-core-local state, so it
  /// commutes with every synchronizing step of another core: the
  /// local-step classification. It also gates pending-abort observation in
  /// run_step, so running ahead cannot move where a doomed transaction
  /// notices its abort. Valid only in kRunning / kIrrevRunning.
  bool step_commutes() const;

  /// The fallback ladder: HTM attempts while attempts_ < max_retries, then
  /// (tier on) STM attempts while stm_attempts_ < max(1, stm.retries), then
  /// the global lock. Returns the state that begins the next attempt.
  State next_tier() const;
  /// Moves to `next` and arms the wait guarding its begin, backing off
  /// first when `next` retries the tier that just aborted (`retry`).
  sim::Cycle enter(State next, State retry = State::kIdle);
  sim::Cycle backoff();
  /// Polls the armed wait once; a spin charges and returns `pre` (what the
  /// step spent before the poll) with it.
  Polled poll_wait(sim::Cycle pre = 0);
  bool waiting() const { return wait_.on != Wait::On::kNone; }
  /// The lock word a kAlp/kSched/kGlock/kGlockFree wait polls.
  sim::Addr polled_word() const;
  /// After a failed poll that took `spin` cycles, parks the core through
  /// the polls that would fail identically (DESIGN.md §13, "Parked
  /// waits"); settle() accounts for the ones it slept through.
  void park(sim::Cycle spin);
  void settle();

  /// Begin bookkeeping shared by the speculative tiers (observer, anchor
  /// arming, CPC reset), then starts `in` and enters `running`.
  void open_attempt(Tier tier, interp::Interp& in, State running);
  sim::Cycle begin_attempt();
  /// One step of the running tier's interpreter, then that tier's abort
  /// or end-of-block handling.
  sim::Cycle run_step(sim::Cycle budget);
  sim::Cycle commit_sequence();
  sim::Cycle handle_abort(htm::AbortCause self_cause);
  /// Abort bookkeeping shared by both speculative tiers (observer,
  /// wasted cycles, policy training on `conflict`), then the ladder.
  sim::Cycle abort_tail(const interp::Interp& in,
                        const htm::AbortInfo* conflict, State retry);
  sim::Cycle glock_step();
  void resolve_and_train(const htm::AbortInfo& info);
  /// Folds `in`'s instruction count into the stats before a restart can
  /// reset it; returns it.
  std::uint64_t retire(const interp::Interp& in);
  /// Commit-time advisory-lock release and the policy's verdict on it.
  sim::Cycle release_on_commit();
  /// Commit epilogue shared by every tier: stats, histograms, observer,
  /// result publication and the commit log.
  void finish(const interp::Interp& in, Tier tier, unsigned attempts);

  // ---- STM tier (valid only when sys_.stm() != nullptr) ----
  sim::Cycle stm_begin_attempt();
  sim::Cycle stm_lock_step();
  sim::Cycle stm_commit_step();
  /// STM abort: orec release and allocation rollback, then abort_tail.
  sim::Cycle stm_abort(htm::AbortCause cause);
  /// HTM + STM attempts so far for this block (what h_tx_retries, the
  /// commit log, and backoff scaling count).
  unsigned total_attempts() const { return attempts_ + stm_attempts_; }

  /// ALPoint protocol shared by the HTM and STM execution environments
  /// (Fig. 5 firing rule + advisory-lock wait).
  interp::ExecEnv::AlpResult do_alpoint(std::uint32_t alp_id,
                                        sim::Addr data_addr);

  static constexpr sim::Cycle kBeginCost = 5;
  static constexpr sim::Cycle kCommitCost = 10;
  // An abort costs a pipeline flush, register-checkpoint restore, and the
  // software handler's dispatch before the retry loop resumes.
  static constexpr sim::Cycle kAbortHandlerCost = 120;
  static constexpr sim::Cycle kSpinPad = 8;

  TxSystem& sys_;
  sim::CoreId core_;
  std::unique_ptr<SpecEnv> spec_env_;
  std::unique_ptr<StmEnv> stm_env_;
  std::unique_ptr<PlainEnv> plain_env_;
  std::unique_ptr<interp::Interp> spec_interp_;
  std::unique_ptr<interp::Interp> stm_interp_;
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
  Wait wait_;
  interp::Interp* live_ = nullptr;  // the running attempt's interpreter
  std::uint64_t result_ = 0;
  /// Instructions of finished attempts, folded in by retire().
  std::uint64_t instrs_done_ = 0;
};

}  // namespace st::runtime
