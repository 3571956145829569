#include "runtime/tx_executor.hpp"

#include "common/check.hpp"

namespace st::runtime {

using htm::AbortCause;
using interp::ExecEnv;
using interp::Interp;

// ---------------------------------------------------------------------------
// Speculative environment: transactional accesses + live ALPoints.
// ---------------------------------------------------------------------------
class TxExecutor::SpecEnv final : public ExecEnv {
 public:
  explicit SpecEnv(TxExecutor& e) : e_(e) {}

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    const auto r = e_.sys_.htm().load(e_.core_, a, size, pc);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    const auto r = e_.sys_.htm().store(e_.core_, a, v, size, pc);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem nt_load(sim::Addr a, unsigned size) override {
    const auto r = e_.sys_.htm().nontx_load(e_.core_, a, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    const auto r = e_.sys_.htm().nontx_store(e_.core_, a, v, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    out = e_.sys_.htm().tx_alloc(e_.core_, t->size, pc);
    return Mem{out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override { e_.sys_.htm().tx_free(e_.core_, a); }

  AlpResult alpoint(std::uint32_t alp_id, sim::Addr data_addr,
                    std::uint32_t pc) override {
    (void)pc;
    return e_.do_alpoint(alp_id, data_addr, /*check_pending=*/true);
  }

 private:
  TxExecutor& e_;
};

// ---------------------------------------------------------------------------
// STM environment: TL2 read/write-set accesses (src/stm) + live ALPoints.
// Only constructed when the tier is enabled.
// ---------------------------------------------------------------------------
class TxExecutor::StmEnv final : public ExecEnv {
 public:
  explicit StmEnv(TxExecutor& e) : e_(e) {}

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    const auto r = e_.sys_.stm()->read(e_.core_, a, size, pc);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    (void)pc;
    const sim::Cycle lat = e_.sys_.stm()->write(e_.core_, a, v, size);
    return Mem{v, lat, true};
  }
  Mem nt_load(sim::Addr a, unsigned size) override {
    const auto r = e_.sys_.htm().nontx_load(e_.core_, a, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    const auto r = e_.sys_.htm().nontx_store(e_.core_, a, v, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    // The HTM sees no active transaction, so this is a plain allocation;
    // the executor tracks it for rollback on STM abort (stm_abort).
    out = e_.sys_.htm().tx_alloc(e_.core_, t->size, pc);
    e_.stm_allocs_.push_back(out);
    return Mem{out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override {
    // Deferred like the HTM's tx_free: performed at commit, dropped on
    // abort (the block may still be read by the retry).
    e_.stm_frees_.push_back(a);
  }

  AlpResult alpoint(std::uint32_t alp_id, sim::Addr data_addr,
                    std::uint32_t pc) override {
    (void)pc;
    // Same advisory-lock protocol as the speculative tier — the paper's
    // scheme serializes conflicting blocks whichever tier runs them. STM
    // attempts have no asynchronous aborts, so no pending check.
    return e_.do_alpoint(alp_id, data_addr, /*check_pending=*/false);
  }

 private:
  TxExecutor& e_;
};

// ---------------------------------------------------------------------------
// Plain environment: irrevocable execution under the global lock.
// ---------------------------------------------------------------------------
class TxExecutor::PlainEnv final : public ExecEnv {
 public:
  explicit PlainEnv(TxExecutor& e) : e_(e) {}

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    (void)pc;
    const auto r = e_.sys_.htm().plain_load(e_.core_, a, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    auto r = e_.sys_.htm().plain_store(e_.core_, a, v, size, pc);
    // Irrevocable stores are committed state the moment they land; stamp
    // the covering orec so concurrent STM readers/validators observe them
    // (DESIGN.md §16 — eager coherence only aborts HTM transactions).
    if (auto* stm = e_.sys_.stm())
      r.latency += stm->irrev_stamp(e_.core_, sim::line_addr(a));
    return Mem{r.value, r.latency, r.ok};
  }
  Mem nt_load(sim::Addr a, unsigned size) override {
    const auto r = e_.sys_.htm().nontx_load(e_.core_, a, size);
    return Mem{r.value, r.latency, r.ok};
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    auto r = e_.sys_.htm().nontx_store(e_.core_, a, v, size);
    if (auto* stm = e_.sys_.stm())
      r.latency += stm->irrev_stamp(e_.core_, sim::line_addr(a));
    return Mem{r.value, r.latency, r.ok};
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    out = e_.sys_.htm().tx_alloc(e_.core_, t->size, pc);
    return Mem{out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override { e_.sys_.htm().tx_free(e_.core_, a); }

  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {Interp::kInactiveAlpCost, false, true};  // ALPs idle when serial
  }

 private:
  TxExecutor& e_;
};

// ---------------------------------------------------------------------------

TxExecutor::TxExecutor(TxSystem& sys, sim::CoreId core)
    : sys_(sys), core_(core),
      private_local_(sys.htm().mem().private_classification()) {
  spec_env_ = std::make_unique<SpecEnv>(*this);
  plain_env_ = std::make_unique<PlainEnv>(*this);
  spec_interp_ = std::make_unique<Interp>(*spec_env_);
  plain_interp_ = std::make_unique<Interp>(*plain_env_);
  if (sys_.stm() != nullptr) {
    stm_env_ = std::make_unique<StmEnv>(*this);
    stm_interp_ = std::make_unique<Interp>(*stm_env_);
  }
}

TxExecutor::~TxExecutor() = default;

void TxExecutor::start(unsigned ab_id, std::vector<std::uint64_t> args) {
  ST_CHECK_MSG(state_ == State::kIdle, "executor already busy");
  ab_id_ = ab_id;
  func_ = sys_.program().module->atomic_blocks().at(ab_id);
  args_ = std::move(args);
  ctx_ = &sys_.abctx(core_, ab_id);
  attempts_ = 0;
  stm_attempts_ = 0;
  stm_allocs_.clear();
  stm_frees_.clear();
  lock_wait_accum_ = 0;
  // STAGTM_MAX_RETRIES=0: skip hardware transactions entirely and start in
  // the strongest enabled fallback tier.
  if (sys_.config().max_retries == 0)
    state_ = sys_.stm() != nullptr ? State::kStmBeginAttempt
                                   : State::kGlockAcquire;
  else
    state_ = State::kBeginAttempt;
}

std::uint64_t TxExecutor::take_result() {
  ST_CHECK(state_ == State::kFinished);
  state_ = State::kIdle;
  return result_;
}

bool TxExecutor::step_commutes() const {
  const interp::Interp& in =
      state_ == State::kRunning ? *spec_interp_ : *plain_interp_;
  const auto na = in.next_access();
  using K = interp::Interp::NextAccess::Kind;
  switch (na.kind) {
    case K::kPure:
    case K::kCall:       // pushes a frame: interpreter-local
    case K::kRetInner:   // pops to the caller: interpreter-local
      return true;
    case K::kLoad:
    case K::kStore:
      // A hit on a line still private to this core touches only the core's
      // own L1, write buffer, and (for irrevocable stores) heap bytes no
      // other core can name. Privacy is stable across a whole run-ahead
      // (escapes happen only at synchronizing steps), so this answer cannot
      // rot between classification and execution. Line-crossing accesses
      // would need two private hits; the simulator forbids them anyway, so
      // classify them synchronizing and let the access path diagnose.
      return sim::line_addr(na.addr) ==
                 sim::line_addr(na.addr + (na.size ? na.size - 1 : 0)) &&
             sys_.htm().mem().private_hit(core_, na.addr);
    default:
      // Alloc/free, nontransactional ops, ALPoints, the final Ret.
      return false;
  }
}

bool TxExecutor::next_step_local() const {
  switch (state_) {
    case State::kStmRunning:
      // Pure-register runs only: STM loads/stores consult the orec table
      // and the redo log's versioned metadata, which are shared state even
      // when the data line is private — never local.
      return stm_interp_->next_is_pure();
    case State::kRunning:
      // A pending abort stamp does NOT matter here: run_step observes
      // stamps only at non-commuting steps, so a doomed attempt's
      // remaining commuting steps retire identically whether the stamp is
      // visible yet or not.
      return private_local_ ? step_commutes() : spec_interp_->next_is_pure();
    case State::kIrrevRunning:
      // Irrevocable execution holds the global lock and cannot abort; its
      // commuting steps are as private as speculative ones.
      return private_local_ ? step_commutes()
                              : plain_interp_->next_is_pure();
    default:
      return false;
  }
}

sim::Cycle TxExecutor::step(sim::Cycle budget) {
  switch (state_) {
    case State::kBeginAttempt: return begin_attempt();
    case State::kRunning: return run_step(budget);
    case State::kStmBeginAttempt: return stm_begin_attempt();
    case State::kStmRunning: return stm_run_step(budget);
    case State::kStmLockAcquire: return stm_lock_step();
    case State::kStmCommit: return stm_commit_step();
    case State::kGlockAcquire: return glock_step();
    case State::kIrrevRunning: return irrev_step(budget);
    default:
      ST_CHECK_MSG(false, "step() on an idle/finished executor");
      return 1;
  }
}

sim::Addr TxExecutor::sched_lock_key() const {
  return sys_.glock_addr() + sim::kLineBytes * (ab_id_ + 1);
}

interp::ExecEnv::AlpResult TxExecutor::do_alpoint(std::uint32_t alp_id,
                                                  sim::Addr data_addr,
                                                  bool check_pending) {
  auto& st = sys_.stats().core(core_);
  stagger::ABContext& ctx = *ctx_;
  sim::Cycle cost = Interp::kInactiveAlpCost;

  if (!spinning_on_alp_) {
    ++st.alp_executed;
    if (sys_.config().scheme == Scheme::kStaggeredSW)
      cost += sys_.cpc().record(core_, data_addr, alp_id);
    // Fig. 5: fire only when this ALP is the active anchor and the data
    // address matches the remembered conflict address (or wildcard).
    if (ctx.active_anchor != alp_id) return {cost, false, true};
    sim::Addr target = data_addr != 0 ? data_addr : ctx.block_address;
    if (ctx.block_address != 0 && target != 0 &&
        sim::line_addr(target) != sim::line_addr(ctx.block_address))
      return {cost, false, true};
    if (target == 0) {  // nothing concrete to lock yet
      ctx.active_anchor = 0;
      return {cost, false, true};
    }
    alp_target_ = target;
    lock_wait_accum_ = 0;
    if (auto* t = sys_.trace())
      t->emit(core_, {sys_.machine().now(), obs::EventKind::kAlpFired, 0, 0,
                      alp_id, sim::line_addr(target)});
  }

  if (check_pending && sys_.htm().pending_abort(core_)) {
    if (auto* p = sys_.prov())
      p->on_lock_wait_aborted(core_, sys_.machine().now());
    spinning_on_alp_ = false;
    return {cost, false, false};
  }
  const auto r = sys_.locks().try_acquire(core_, alp_target_);
  if (r.acquired) {
    ctx.active_anchor = 0;  // one lock per transaction (Fig. 5 line 4)
    ++st.alp_acquires;
    spinning_on_alp_ = false;
    return {cost + r.latency, false, true};
  }
  lock_wait_accum_ += r.latency + kSpinPad;
  if (lock_wait_accum_ > sys_.config().lock_timeout) {
    // Give up and run unprotected (§2: "simply proceed when the timeout
    // expires"); correctness stays with the TM tier.
    ++st.alp_timeouts;
    ctx.active_anchor = 0;
    spinning_on_alp_ = false;
    sys_.policy().on_lock_timeout(ctx);
    if (auto* p = sys_.prov())
      p->on_lock_timeout(core_, sys_.machine().now());
    if (auto* t = sys_.trace())
      t->emit(core_, {sys_.machine().now(), obs::EventKind::kLockTimeout, 0,
                      0, sys_.locks().lock_index(alp_target_),
                      lock_wait_accum_});
    return {cost + r.latency, false, true};
  }
  spinning_on_alp_ = true;
  last_step_lock_wait_ = true;
  return {r.latency + kSpinPad, true, true};
}

sim::Cycle TxExecutor::begin_attempt() {
  // Proactive transaction scheduling (§7 baseline): when the predictor for
  // this atomic block fired, serialize the WHOLE transaction behind a lock
  // acquired before xbegin — no partial overlap.
  if (sys_.config().scheme == Scheme::kTxSched && attempts_ == 0) {
    stagger::ABContext& ctx = sys_.abctx(core_, ab_id_);
    if (ctx.configured_anchor != 0 && !sys_.locks().holds_lock(core_)) {
      const auto r = sys_.locks().try_acquire(core_, sched_lock_key());
      if (!r.acquired) {
        lock_wait_accum_ += r.latency + kSpinPad;
        auto& st = sys_.stats().core(core_);
        if (lock_wait_accum_ > sys_.config().lock_timeout) {
          ++st.alp_timeouts;
          sys_.policy().on_lock_timeout(ctx);
          if (auto* p = sys_.prov())
            p->on_lock_timeout(core_, sys_.machine().now());
          if (auto* t = sys_.trace())
            t->emit(core_, {sys_.machine().now(),
                            obs::EventKind::kLockTimeout, 0, 0,
                            sys_.locks().lock_index(sched_lock_key()),
                            lock_wait_accum_});
          lock_wait_accum_ = 0;  // proceed unprotected
        } else {
          st.cycles_lock_wait += r.latency + kSpinPad;
          return r.latency + kSpinPad;  // keep spinning in this state
        }
      } else {
        ++sys_.stats().core(core_).alp_acquires;
      }
    }
  }
  ++attempts_;
  attempt_cycles_ = 0;
  lock_wait_accum_ = 0;
  spinning_on_alp_ = false;
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxBegin, 0, 0,
                    ab_id_, attempts_});
  if (auto* p = sys_.prov()) p->on_attempt_begin(core_, ab_id_, attempts_);
  ctx_->arm();
  if (sys_.config().scheme == Scheme::kStaggeredSW)
    sys_.cpc().begin_tx(core_);
  sys_.htm().begin(core_);
  spec_interp_->start(func_, args_);
  state_ = State::kRunning;
  attempt_cycles_ += kBeginCost;
  return kBeginCost;
}

sim::Cycle TxExecutor::run_step(sim::Cycle budget) {
  // An asynchronous (cross-core) abort stamp is observed at the next
  // NON-COMMUTING step, never between core-local ones: the doomed attempt
  // keeps retiring (and the abort discards the work), just as a real core
  // keeps retiring until the abort interrupt lands. With observation
  // points restricted to synchronizing steps, the abort's timing is a
  // function of the victim's own instruction stream — not of when between
  // two such steps the stamp landed — which is the invariant that lets the
  // machine (sim/machine.hpp, DESIGN.md §13–14) run commuting steps ahead
  // of other cores' events without consulting shared state. The
  // predicate is deliberately knob-independent (see step_commutes).
  if (sys_.htm().pending_abort(core_) && !step_commutes())
    return handle_abort(AbortCause::None);
  last_step_lock_wait_ = false;
  const auto s = spec_interp_->step(budget);
  if (s.aborted) {
    // The instruction observed the transaction's death; its cycles are part
    // of the doomed attempt.
    attempt_cycles_ += s.cycles;
    return s.cycles + handle_abort(AbortCause::None);
  }
  if (last_step_lock_wait_)
    sys_.stats().core(core_).cycles_lock_wait += s.cycles;
  else
    attempt_cycles_ += s.cycles;
  if (s.finished) return s.cycles + commit_sequence();
  return s.cycles;
}

sim::Cycle TxExecutor::commit_sequence() {
  sim::Cycle cost = 0;
  // Lazy subscription: read the global fallback lock transactionally right
  // before commit (§6 "Compiler and HTM Runtime"). The unsafe knob models
  // a build with the subscription compiled out (checker validation only).
  if (!sys_.config().unsafe_skip_subscription) {
    const auto sub = sys_.htm().load(core_, sys_.glock_addr(), 8, 0);
    cost += sub.latency;
    attempt_cycles_ += sub.latency;
    if (!sub.ok) return cost + handle_abort(AbortCause::None);
    if (sub.value != 0) return cost + handle_abort(AbortCause::Glock);
  }

  // HTM<->STM coexistence (DESIGN.md §16), subscription-style: inspect the
  // orecs covering our write footprint with nontransactional loads (orec
  // words must never enter our own speculative set). A locked orec is an
  // STM writer mid-commit whose validated reads we are about to overwrite —
  // the hardware transaction yields. Then pre-bump the global version clock
  // so in-flight STM readers revalidate against this commit; the covered
  // orecs are stamped at the new version once the write set has drained.
  // (A stale bump from a commit that subsequently fails is harmless: no
  // data changed, later STM validations are merely conservative.)
  std::uint64_t stm_wv = 0;
  const std::vector<std::uint32_t>* stamp_orecs = nullptr;
  if (auto* stm = sys_.stm()) {
    const auto& lines = sys_.htm().written_lines(core_);
    if (!lines.empty()) {
      const auto& orecs = stm->orecs_for_lines(lines);
      for (std::uint32_t idx : orecs) {
        const auto w = sys_.htm().nontx_load(core_, stm->orec_addr(idx), 8);
        cost += w.latency;
        attempt_cycles_ += w.latency;
        if (!w.ok) return cost + handle_abort(AbortCause::None);
        if (stm::orec_locked(w.value))
          return cost + handle_abort(AbortCause::StmLock);
      }
      const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
      cost += clk.latency;
      attempt_cycles_ += clk.latency;
      if (!clk.ok) return cost + handle_abort(AbortCause::None);
      stm_wv = clk.value + 1;
      const auto cs =
          sys_.htm().nontx_store(core_, stm->clock_addr(), stm_wv, 8);
      cost += cs.latency;
      attempt_cycles_ += cs.latency;
      stamp_orecs = &orecs;
    }
  }

  const bool held = sys_.locks().holds_lock(core_);
  // "No contention on that lock" (§5.2): nobody queued on the lock AND the
  // transaction needed no retries — evidence the serialization was not
  // earning its keep, so the policy may decay the activation.
  const bool contended =
      sys_.locks().contended_while_held(core_) && attempts_ > 1;
  sim::Cycle publish = 0;
  if (!sys_.htm().commit(core_, &publish))
    return cost + handle_abort(AbortCause::None);

  if (stamp_orecs != nullptr) {
    for (std::uint32_t idx : *stamp_orecs) {
      const auto ss = sys_.htm().nontx_store(
          core_, sys_.stm()->orec_addr(idx), stm::orec_word(stm_wv, false),
          8);
      cost += ss.latency;
      attempt_cycles_ += ss.latency;
    }
  }

  cost += kCommitCost + publish;
  attempt_cycles_ += kCommitCost + publish;
  cost += sys_.locks().release(core_);
  if (sys_.config().scheme != Scheme::kBaseline)
    sys_.policy().on_commit(*ctx_, held, contended, attempts_ == 1);

  auto& st = sys_.stats().core(core_);
  st.cycles_useful_tx += attempt_cycles_;
  st.tx_instrs += spec_interp_->instrs_executed();
  st.interp_instrs += spec_interp_->instrs_executed();
  instrs_done_ += spec_interp_->instrs_executed();
  st.h_tx_cycles.add(attempt_cycles_);
  st.h_tx_retries.add(attempts_);
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxCommit, 0, 0,
                    ab_id_, attempts_});
  if (auto* p = sys_.prov()) p->on_attempt_commit(core_, sys_.machine().now());
  result_ = spec_interp_->result();
  // The result crosses into the host (workload next_op logic), which can
  // hand it to any other core: publication point.
  sys_.htm().publish_host_value(core_, result_);
  if (auto* log = sys_.commit_log())
    log->push_back({sys_.machine().now(), core_,
                    static_cast<std::uint16_t>(ab_id_),
                    static_cast<std::uint16_t>(attempts_),
                    /*irrevocable=*/false, /*tier=*/0, result_, args_});
  state_ = State::kFinished;
  return cost;
}

void TxExecutor::resolve_and_train(const htm::AbortInfo& info) {
  const Scheme scheme = sys_.config().scheme;
  if (scheme == Scheme::kBaseline) return;
  auto& st = sys_.stats().core(core_);
  const stagger::UnifiedAnchorTable& table = *ctx_->table();

  std::uint32_t identified = 0;
  switch (scheme) {
    case Scheme::kStaggered: {
      // Hardware conflicting-PC: the (truncated) tag indexes the unified
      // anchor table; non-anchors resolve through their pioneer.
      if (info.pc_tag_valid)
        if (const auto* e = table.lookup_tag(info.pc_tag))
          identified = e->pioneer_alp;
      break;
    }
    case Scheme::kStaggeredSW: {
      identified =
          sys_.cpc().lookup(core_, info.conflict_line).value_or(0);
      break;
    }
    case Scheme::kAddrOnly:
      identified = sys_.program().entry_alps.at(ab_id_);
      break;
    case Scheme::kTxSched:
      // Whole-transaction scheduling has no anchors; a synthetic per-block
      // id feeds the same frequency predictor.
      identified = 1 + ab_id_;
      break;
    default:
      break;
  }

  // Accuracy bookkeeping (Table 3): compare against the simulator's ground
  // truth — the full PC of the first speculative access to the line.
  if (scheme == Scheme::kStaggered || scheme == Scheme::kStaggeredSW) {
    if (const auto* truth = table.lookup_pc(info.true_first_pc)) {
      if (truth->pioneer_alp != 0) {
        if (identified == truth->pioneer_alp)
          ++st.anchor_id_correct;
        else
          ++st.anchor_id_wrong;
      }
    }
  }

  sys_.policy().on_abort(*ctx_, identified, info.conflict_line);
}

sim::Cycle TxExecutor::handle_abort(AbortCause self_cause) {
  const auto info = sys_.htm().abort(core_, self_cause);
  sim::Cycle cost = kAbortHandlerCost;
  cost += sys_.locks().release(core_);
  spinning_on_alp_ = false;
  // With the STM tier on, exhausting HTM retries falls to STM, not the
  // glock — will_glock stays accurate for the blame pipeline.
  const bool exhausted = attempts_ >= sys_.config().max_retries;
  const bool will_glock = exhausted && sys_.stm() == nullptr;
  if (auto* p = sys_.prov())
    p->on_attempt_abort(core_, attempts_, attempt_cycles_, will_glock,
                        sys_.machine().now());

  auto& st = sys_.stats().core(core_);
  st.cycles_wasted_tx += attempt_cycles_;
  // Host-throughput accounting: the doomed attempt's instructions were
  // interpreted even though they never commit.
  st.interp_instrs += spec_interp_->instrs_executed();
  instrs_done_ += spec_interp_->instrs_executed();

  if (info.cause == AbortCause::Conflict) resolve_and_train(info);

  if (exhausted) {
    state_ = sys_.stm() != nullptr ? State::kStmBeginAttempt
                                   : State::kGlockAcquire;
    return cost;
  }
  // Polite backoff: mean delay proportional to the retry count.
  const sim::Cycle mean = sys_.config().backoff_base * attempts_;
  const sim::Cycle delay = sys_.rng(core_).next_below(2 * mean + 1);
  st.cycles_backoff += delay;
  st.h_tx_backoff.add(delay);
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kBackoff, 0, 0,
                    attempts_, delay});
  state_ = State::kBeginAttempt;
  return cost + delay;
}

sim::Cycle TxExecutor::glock_step() {
  const auto cas = sys_.htm().nontx_cas(core_, sys_.glock_addr(), 0, core_ + 1);
  if (!cas.success) {
    sys_.stats().core(core_).cycles_lock_wait += cas.latency + kSpinPad;
    return cas.latency + kSpinPad;
  }
  ++sys_.stats().core(core_).irrevocable_entries;
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kIrrevocable, 0,
                    0, ab_id_, total_attempts()});
  if (auto* p = sys_.prov()) p->on_irrev_begin(core_, ab_id_);
  attempt_cycles_ = 0;
  sim::Cycle cost = cas.latency;
  if (auto* stm = sys_.stm()) {
    // Irrevocable writes serialize after everything committed so far: bump
    // the clock once and stamp the orec of every line this execution
    // stores to at the new version (PlainEnv::store). STM attempts cannot
    // begin while the glock is held, and live ones fail validation on any
    // stamped orec they read.
    const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
    const std::uint64_t wv = clk.value + 1;
    const auto cs = sys_.htm().nontx_store(core_, stm->clock_addr(), wv, 8);
    cost += clk.latency + cs.latency;
    stm->begin_irrev(core_, wv);
  }
  plain_interp_->start(func_, args_);
  state_ = State::kIrrevRunning;
  return cost;
}

sim::Cycle TxExecutor::irrev_step(sim::Cycle budget) {
  const auto s = plain_interp_->step(budget);
  ST_CHECK_MSG(!s.aborted, "irrevocable execution cannot abort");
  attempt_cycles_ += s.cycles;
  if (!s.finished) return s.cycles;

  auto& st = sys_.stats().core(core_);
  st.cycles_irrevocable += attempt_cycles_;
  st.tx_instrs += plain_interp_->instrs_executed();
  st.interp_instrs += plain_interp_->instrs_executed();
  instrs_done_ += plain_interp_->instrs_executed();
  ++st.commits;  // a serialized execution still commits its atomic block
  st.h_tx_cycles.add(attempt_cycles_);
  // The serial execution counts as the final "attempt" after the failed
  // speculative (HTM + STM) tries.
  st.h_tx_retries.add(total_attempts() + 1);
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxCommit,
                    /*tier=*/1, 0, ab_id_, total_attempts() + 1});
  if (auto* p = sys_.prov()) p->on_attempt_commit(core_, sys_.machine().now());
  result_ = plain_interp_->result();
  sys_.htm().publish_host_value(core_, result_);
  if (auto* log = sys_.commit_log())
    log->push_back({sys_.machine().now(), core_,
                    static_cast<std::uint16_t>(ab_id_),
                    static_cast<std::uint16_t>(total_attempts() + 1),
                    /*irrevocable=*/true, /*tier=*/1, result_, args_});
  const sim::Cycle rel =
      sys_.htm().nontx_store(core_, sys_.glock_addr(), 0, 8).latency;
  state_ = State::kFinished;
  return s.cycles + rel;
}

// ---------------------------------------------------------------------------
// STM tier (DESIGN.md §16). Reached only when sys_.stm() != nullptr, so the
// interpreter/env members are always live here.
// ---------------------------------------------------------------------------

sim::Cycle TxExecutor::stm_begin_attempt() {
  auto* stm = sys_.stm();
  // STM attempts never start while an irrevocable execution holds the
  // global lock: its plain stores bypass orec locking, so running under it
  // could validate against half-applied state. Spin here (glock holders
  // are short-lived by design).
  const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
  if (g.value != 0) {
    sys_.stats().core(core_).cycles_lock_wait += g.latency + kSpinPad;
    return g.latency + kSpinPad;
  }
  ++stm_attempts_;
  attempt_cycles_ = 0;
  lock_wait_accum_ = 0;
  spinning_on_alp_ = false;
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxBegin,
                    /*tier=*/2, 0, ab_id_, total_attempts()});
  if (auto* p = sys_.prov())
    p->on_attempt_begin(core_, ab_id_, total_attempts());
  ctx_->arm();
  if (sys_.config().scheme == Scheme::kStaggeredSW) sys_.cpc().begin_tx(core_);
  const sim::Cycle bl = stm->begin(core_);
  stm_interp_->start(func_, args_);
  state_ = State::kStmRunning;
  attempt_cycles_ += kBeginCost + g.latency + bl;
  return kBeginCost + g.latency + bl;
}

sim::Cycle TxExecutor::stm_run_step(sim::Cycle budget) {
  last_step_lock_wait_ = false;
  const auto s = stm_interp_->step(budget);
  if (s.aborted) {
    // An StmEnv read failed its orec precheck (locked, or written since our
    // read version): TL2 opacity abort.
    attempt_cycles_ += s.cycles;
    return s.cycles + stm_abort(AbortCause::StmValidation);
  }
  if (last_step_lock_wait_)
    sys_.stats().core(core_).cycles_lock_wait += s.cycles;
  else
    attempt_cycles_ += s.cycles;
  if (s.finished) {
    if (sys_.stm()->read_only(core_))
      return s.cycles + stm_commit_step();  // nothing to lock
    lock_wait_accum_ = 0;
    state_ = State::kStmLockAcquire;
  }
  return s.cycles;
}

sim::Cycle TxExecutor::stm_lock_step() {
  // A concurrent irrevocable execution can stamp (clobber) orecs we hold;
  // bail out before acquiring more rather than validating against its
  // half-applied writes. Observing the glock free here is enough: the
  // stamps an irrevocable execution already finished are ordinary version
  // bumps that commit-time validation checks like any other.
  const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
  attempt_cycles_ += g.latency;
  if (g.value != 0) return g.latency + stm_abort(AbortCause::StmGlock);

  const auto ls = sys_.stm()->lock_next(core_);
  if (ls.status == stm::StmSystem::LockStatus::kBusy) {
    // Bounded spin on another writer's orec: same timestamp policy as the
    // advisory-lock spin. We deliberately do NOT wait while holding locks
    // forever — the timeout breaks writer-writer deadlocks.
    lock_wait_accum_ += ls.latency + kSpinPad;
    sys_.stats().core(core_).cycles_lock_wait +=
        g.latency + ls.latency + kSpinPad;
    if (lock_wait_accum_ > sys_.config().lock_timeout)
      return ls.latency + stm_abort(AbortCause::StmLock);
    return g.latency + ls.latency + kSpinPad;
  }
  attempt_cycles_ += ls.latency;
  if (ls.status == stm::StmSystem::LockStatus::kAllHeld)
    state_ = State::kStmCommit;
  return g.latency + ls.latency;
}

sim::Cycle TxExecutor::stm_commit_step() {
  auto* stm = sys_.stm();
  sim::Cycle cost = 0;
  if (!stm->read_only(core_)) {
    // Writers must not drain their redo log concurrently with an
    // irrevocable execution's plain stores. (Read-only commits need no such
    // check: validation alone proves they serialize before any in-flight
    // irrevocable writer.)
    const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
    cost += g.latency;
    attempt_cycles_ += g.latency;
    if (g.value != 0) return cost + stm_abort(AbortCause::StmGlock);
  }
  const auto r = stm->commit(core_);
  cost += r.latency + kCommitCost;
  attempt_cycles_ += r.latency + kCommitCost;
  if (!r.ok) return cost + stm_abort(AbortCause::StmValidation);

  // Committed: perform deferred frees, keep the attempt's allocations.
  for (sim::Addr a : stm_frees_) sys_.heap().try_dealloc(a);
  stm_frees_.clear();
  stm_allocs_.clear();

  const bool held = sys_.locks().holds_lock(core_);
  const bool contended =
      sys_.locks().contended_while_held(core_) && total_attempts() > 1;
  cost += sys_.locks().release(core_);
  if (sys_.config().scheme != Scheme::kBaseline)
    sys_.policy().on_commit(*ctx_, held, contended, total_attempts() == 1);

  auto& st = sys_.stats().core(core_);
  ++st.commits;
  ++st.stm_commits;
  st.cycles_useful_tx += attempt_cycles_;
  st.tx_instrs += stm_interp_->instrs_executed();
  st.interp_instrs += stm_interp_->instrs_executed();
  instrs_done_ += stm_interp_->instrs_executed();
  st.h_tx_cycles.add(attempt_cycles_);
  st.h_tx_retries.add(total_attempts());
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxCommit,
                    /*tier=*/2, 0, ab_id_, total_attempts()});
  if (auto* p = sys_.prov()) p->on_attempt_commit(core_, sys_.machine().now());
  result_ = stm_interp_->result();
  sys_.htm().publish_host_value(core_, result_);
  if (auto* log = sys_.commit_log())
    log->push_back({sys_.machine().now(), core_,
                    static_cast<std::uint16_t>(ab_id_),
                    static_cast<std::uint16_t>(total_attempts()),
                    /*irrevocable=*/false, /*tier=*/2, result_, args_});
  state_ = State::kFinished;
  return cost;
}

sim::Cycle TxExecutor::stm_abort(AbortCause cause) {
  auto* stm = sys_.stm();
  sim::Cycle cost = kAbortHandlerCost;
  // commit() failure already released + reset; every other path aborts the
  // live attempt here.
  if (stm->active(core_)) cost += stm->abort(core_);
  const sim::Addr line = sim::line_addr(stm->conflict_addr(core_));
  cost += sys_.locks().release(core_);
  spinning_on_alp_ = false;
  // Roll back this attempt's allocations (forward order, mirroring
  // HtmSystem::abort, so the live and replayed allocator streams match);
  // drop deferred frees.
  for (sim::Addr a : stm_allocs_) sys_.heap().try_dealloc(a);
  stm_allocs_.clear();
  stm_frees_.clear();

  auto& st = sys_.stats().core(core_);
  switch (cause) {
    case AbortCause::StmLock: ++st.stm_aborts_lock; break;
    case AbortCause::StmGlock: ++st.stm_aborts_glock; break;
    default: ++st.stm_aborts_validation; break;
  }
  st.cycles_wasted_tx += attempt_cycles_;
  st.interp_instrs += stm_interp_->instrs_executed();
  instrs_done_ += stm_interp_->instrs_executed();

  const bool will_glock = stm_attempts_ >= sys_.config().stm.retries;
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kTxAbort,
                    static_cast<std::uint8_t>(cause), 0, /*aborter=*/0, line});
  if (auto* p = sys_.prov()) {
    p->on_abort_finalize(core_, static_cast<std::uint8_t>(cause), line,
                         /*pc_tag_valid=*/false, /*pc_tag=*/0,
                         /*first_pc=*/0, sys_.heap().alloc_site_for(line),
                         sys_.privacy().private_owner(line),
                         sys_.machine().now(), /*stm_tier=*/true);
    p->on_attempt_abort(core_, total_attempts(), attempt_cycles_, will_glock,
                        sys_.machine().now());
  }
  // Orec conflicts are real data conflicts: train the advisory-lock policy
  // across tiers (the CPC map recorded this attempt's ALP visits, so
  // StaggeredSW resolution works the same as for HTM aborts).
  if (cause != AbortCause::StmGlock) {
    htm::AbortInfo info;
    info.cause = cause;
    info.conflict_line = line;
    resolve_and_train(info);
  }
  if (will_glock) {
    state_ = State::kGlockAcquire;
    return cost;
  }
  const sim::Cycle mean = sys_.config().backoff_base * total_attempts();
  const sim::Cycle delay = sys_.rng(core_).next_below(2 * mean + 1);
  st.cycles_backoff += delay;
  st.h_tx_backoff.add(delay);
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), obs::EventKind::kBackoff, 0, 0,
                    total_attempts(), delay});
  state_ = State::kStmBeginAttempt;
  return cost + delay;
}

}  // namespace st::runtime
