#include "runtime/tx_executor.hpp"

#include "common/check.hpp"

namespace st::runtime {

using htm::AbortCause;
using interp::ExecEnv;
using interp::Interp;

// ---------------------------------------------------------------------------
// Speculative environment: transactional accesses + live ALPoints. The STM
// and irrevocable environments derive from it and replace its data
// accesses; nontransactional accesses and allocation go straight to the
// HTM in every tier.
// ---------------------------------------------------------------------------
class TxExecutor::SpecEnv : public ExecEnv {
 public:
  explicit SpecEnv(TxExecutor& e) : e_(e) {}

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    return mem(e_.sys_.htm().load(e_.core_, a, size, pc));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    return mem(e_.sys_.htm().store(e_.core_, a, v, size, pc));
  }
  Mem nt_load(sim::Addr a, unsigned size) override {
    return mem(e_.sys_.htm().nontx_load(e_.core_, a, size));
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return mem(e_.sys_.htm().nontx_store(e_.core_, a, v, size));
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    out = e_.sys_.htm().tx_alloc(e_.core_, t->size, pc);
    return Mem{out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override { e_.sys_.htm().tx_free(e_.core_, a); }
  AlpResult alpoint(std::uint32_t alp_id, sim::Addr data_addr,
                    std::uint32_t) override {
    return e_.do_alpoint(alp_id, data_addr);
  }

 protected:
  static Mem mem(const auto& r) { return Mem{r.value, r.latency, r.ok}; }
  TxExecutor& e_;
};

// STM environment: TL2 read/write-set accesses (src/stm) + live ALPoints —
// the paper's scheme serializes conflicting blocks whichever tier runs
// them. Used only when the tier is enabled.
class TxExecutor::StmEnv final : public SpecEnv {
 public:
  using SpecEnv::SpecEnv;

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    return mem(e_.sys_.stm()->read(e_.core_, a, size, pc));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t) override {
    const sim::Cycle lat = e_.sys_.stm()->write(e_.core_, a, v, size);
    return Mem{v, lat, true};
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    // The HTM sees no active transaction, so this is a plain allocation;
    // the executor tracks it for rollback on STM abort (stm_abort).
    const Mem m = SpecEnv::alloc(t, out, pc);
    e_.stm_allocs_.push_back(out);
    return m;
  }
  void free_(sim::Addr a) override {
    // Deferred like the HTM's tx_free: performed at commit, dropped on
    // abort (the block may still be read by the retry).
    e_.stm_frees_.push_back(a);
  }
};

// Plain environment: irrevocable execution under the global lock.
class TxExecutor::PlainEnv final : public SpecEnv {
 public:
  using SpecEnv::SpecEnv;

  Mem load(sim::Addr a, unsigned size, std::uint32_t) override {
    return mem(e_.sys_.htm().plain_load(e_.core_, a, size));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    // Irrevocable stores are committed state the moment they land; stamp
    // the covering orec so concurrent STM readers/validators observe them
    // (DESIGN.md §16 — eager coherence only aborts HTM transactions).
    return stamped(a,
                   mem(e_.sys_.htm().plain_store(e_.core_, a, v, size, pc)));
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return stamped(a, SpecEnv::nt_store(a, v, size));
  }
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {Interp::kInactiveAlpCost, false, true};  // ALPs idle when serial
  }

 private:
  Mem stamped(sim::Addr a, Mem m) {
    if (auto* stm = e_.sys_.stm())
      m.latency += stm->irrev_stamp(e_.core_, sim::line_addr(a));
    return m;
  }
};

TxExecutor::TxExecutor(TxSystem& sys, sim::CoreId core)
    : sys_(sys), core_(core),
      spec_env_(std::make_unique<SpecEnv>(*this)),
      stm_env_(std::make_unique<StmEnv>(*this)),
      plain_env_(std::make_unique<PlainEnv>(*this)),
      spec_interp_(std::make_unique<Interp>(*spec_env_)),
      stm_interp_(std::make_unique<Interp>(*stm_env_)),
      plain_interp_(std::make_unique<Interp>(*plain_env_)) {}

TxExecutor::~TxExecutor() = default;

void TxExecutor::start(unsigned ab_id, std::vector<std::uint64_t> args) {
  ST_CHECK_MSG(state_ == State::kIdle, "executor already busy");
  ab_id_ = ab_id;
  func_ = sys_.program().module->atomic_blocks().at(ab_id);
  args_ = std::move(args);
  ctx_ = &sys_.abctx(core_, ab_id);
  attempts_ = 0;
  stm_attempts_ = 0;
  // STAGTM_MAX_RETRIES=0 skips hardware transactions entirely: the ladder
  // starts in the strongest enabled fallback tier.
  enter(next_tier());
}

std::uint64_t TxExecutor::take_result() {
  ST_CHECK(state_ == State::kFinished);
  state_ = State::kIdle;
  return result_;
}

bool TxExecutor::step_commutes() const {
  const auto na = live_->next_access();
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
      return live_->next_is_pure();
    case State::kRunning:
      // A pending abort stamp does NOT matter here: run_step observes
      // stamps only at non-commuting steps, so a doomed attempt's
      // remaining commuting steps retire identically whether the stamp is
      // visible yet or not.
    case State::kIrrevRunning:
      // Irrevocable execution holds the global lock and cannot abort; its
      // commuting steps are as private as speculative ones.
      return step_commutes();
    default:
      return false;
  }
}

sim::Cycle TxExecutor::step(sim::Cycle budget) {
  if (wait_.parked_at != 0) settle();
  switch (state_) {
    case State::kBeginAttempt: return begin_attempt();
    case State::kRunning:
    case State::kStmRunning:
    case State::kIrrevRunning: return run_step(budget);
    case State::kStmBeginAttempt: return stm_begin_attempt();
    case State::kStmLockAcquire: return stm_lock_step();
    case State::kStmCommit: return stm_commit_step();
    case State::kGlockAcquire: return glock_step();
    default:
      ST_CHECK_MSG(false, "step() on an idle/finished executor");
      return 1;
  }
}

// ---------------------------------------------------------------------------
// The fallback ladder and the one wait.
// ---------------------------------------------------------------------------

TxExecutor::State TxExecutor::next_tier() const {
  const RuntimeConfig& cfg = sys_.config();
  if (attempts_ < cfg.max_retries) return State::kBeginAttempt;
  // An enabled STM tier always gets at least one attempt, even with
  // STAGTM_STM_RETRIES=0.
  if (sys_.stm() != nullptr &&
      (stm_attempts_ == 0 || stm_attempts_ < cfg.stm.retries))
    return State::kStmBeginAttempt;
  return State::kGlockAcquire;
}

sim::Cycle TxExecutor::enter(State next, State retry) {
  const sim::Cycle delay = next == retry ? backoff() : 0;
  state_ = next;
  wait_ = Wait{};
  if (next == State::kStmBeginAttempt) wait_.on = Wait::On::kGlockFree;
  if (next == State::kGlockAcquire) wait_.on = Wait::On::kGlock;
  // Proactive transaction scheduling (§7 baseline): when the predictor for
  // this atomic block fired, serialize the WHOLE transaction behind a lock
  // acquired before xbegin — no partial overlap. The lock key is
  // synthesized from the atomic-block id.
  if (next == State::kBeginAttempt && attempts_ == 0 &&
      sys_.config().scheme == Scheme::kTxSched &&
      ctx_->configured_anchor != 0 && !sys_.locks().holds_lock(core_))
    wait_ = {Wait::On::kSched,
             sys_.glock_addr() + sim::kLineBytes * (ab_id_ + 1), 0,
             sys_.config().lock_timeout};
  return delay;
}

sim::Cycle TxExecutor::backoff() {
  // Polite backoff: mean delay proportional to the retry count.
  const unsigned n = total_attempts();
  const sim::Cycle delay =
      sys_.rng(core_).next_below(2 * sys_.config().backoff_base * n + 1);
  auto& st = sys_.stats().core(core_);
  st.cycles_backoff += delay;
  st.h_tx_backoff.add(delay);
  if (auto* o = sys_.observer())
    o->backoff(core_, sys_.machine().now(), n, delay);
  return delay;
}

TxExecutor::Polled TxExecutor::poll_wait(sim::Cycle pre) {
  using On = Wait::On;
  auto& st = sys_.stats().core(core_);
  struct {
    bool got = false;
    sim::Cycle lat = 0;
  } r;
  switch (wait_.on) {
    case On::kAlp:
    case On::kSched: {
      const auto a = sys_.locks().try_acquire(core_, wait_.key);
      r = {a.acquired, a.latency};
      break;
    }
    case On::kGlock: {
      const auto c =
          sys_.htm().nontx_cas(core_, sys_.glock_addr(), 0, core_ + 1);
      r = {c.success, c.latency};
      break;
    }
    case On::kGlockFree: {
      const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
      r = {g.value == 0, g.latency};
      break;
    }
    case On::kOrec: {
      using LS = stm::StmSystem::LockStatus;
      const auto l = sys_.stm()->lock_next(core_);
      // Locking one more orec is progress, not the end of the wait: the
      // timeout spans the whole write set.
      if (l.status == LS::kAdvanced) return {Poll::kGot, l.latency};
      r = {l.status == LS::kAllHeld, l.latency};
      break;
    }
    case On::kNone:
      ST_UNREACHABLE("poll_wait() with no wait armed");
  }
  const bool advisory = wait_.on == On::kAlp || wait_.on == On::kSched;
  if (r.got) {
    if (advisory) ++st.alp_acquires;
    wait_.on = On::kNone;
    return {Poll::kGot, r.lat};
  }
  const sim::Cycle spin = pre + r.lat + kSpinPad;
  wait_.accum += r.lat + kSpinPad;
  if (wait_.accum <= wait_.timeout) {
    st.cycles_lock_wait += spin;
    if (pre == 0 && wait_.on != On::kOrec) park(spin);
    return {Poll::kSpun, spin};
  }
  if (advisory) {
    // Give up and run unprotected (§2: "simply proceed when the timeout
    // expires"); correctness stays with the TM tier. The timed-out poll is
    // not charged as lock wait.
    ++st.alp_timeouts;
    sys_.policy().on_lock_timeout(*ctx_);
    if (auto* o = sys_.observer())
      o->lock_timeout(core_, sys_.machine().now(),
                      sys_.locks().lock_index(wait_.key), wait_.accum);
  } else {
    st.cycles_lock_wait += spin;  // an orec timeout aborts the attempt
  }
  wait_.on = On::kNone;
  return {Poll::kTimedOut, r.lat};
}

sim::Addr TxExecutor::polled_word() const {
  if (wait_.on == Wait::On::kAlp || wait_.on == Wait::On::kSched)
    return sys_.locks().lock_addr(sys_.locks().lock_index(wait_.key));
  return sys_.glock_addr();
}

void TxExecutor::park(sim::Cycle spin) {
  // The next poll is an L1 hit on the lock word (the poll just made the line
  // resident) that fails the same way and changes only counters, and so is
  // every poll after it until the line leaves the L1 or, for an ALP wait
  // inside a hardware transaction, an abort stamp lands. Sleep through them:
  // the memory system wakes the core on either event.
  const sim::Addr word = polled_word();
  sim::MemorySystem& mem = sys_.htm().mem();
  if (sys_.htm().pending_abort(core_) || !mem.watch(core_, word)) return;
  const sim::Cycle period = mem.config().l1_lat + kSpinPad;
  const sim::Cycle first = sys_.machine().core_clock(core_) + spin;
  if (!sys_.machine().park(core_, first, period,
                           (wait_.timeout - wait_.accum) / period))
    return;
  wait_.parked_at = first;
  wait_.seen = sys_.heap().load(word, 8);
}

void TxExecutor::settle() {
  // The skipped polls are those before this step's slot: each hit the lock
  // word in L1 and spun, so add them up; this step then polls for real.
  const sim::Addr word = polled_word();
  sim::MemorySystem& mem = sys_.htm().mem();
  const sim::Cycle period = mem.config().l1_lat + kSpinPad;
  const sim::Cycle n =
      (sys_.machine().core_clock(core_) - wait_.parked_at) / period;
#ifndef NDEBUG
  ST_CHECK_MSG(mem.peek_l1(core_, word) == nullptr ||
                   sys_.heap().load(word, 8) == wait_.seen,
               "a parked lock word changed without leaving the L1");
#endif
  wait_.parked_at = 0;
  wait_.accum += n * period;
  sys_.stats().core(core_).cycles_lock_wait += n * period;
  mem.settle_hits(core_, word, n);
}

interp::ExecEnv::AlpResult TxExecutor::do_alpoint(std::uint32_t alp_id,
                                                  sim::Addr data_addr) {
  stagger::ABContext& ctx = *ctx_;
  sim::Cycle cost = Interp::kInactiveAlpCost;

  if (!waiting()) {
    ++sys_.stats().core(core_).alp_executed;
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
    wait_ = {Wait::On::kAlp, target, 0, sys_.config().lock_timeout};
    if (auto* o = sys_.observer())
      o->alp_fired(core_, sys_.machine().now(), alp_id,
                   sim::line_addr(target));
  }

  // Only hardware attempts abort asynchronously.
  if (state_ == State::kRunning && sys_.htm().pending_abort(core_)) {
    if (auto* o = sys_.observer())
      o->lock_wait_aborted(core_, sys_.machine().now());
    wait_ = Wait{};
    return {cost, false, false};
  }
  // A spin re-executes the ALPoint next step (run_step leaves its cycles
  // out of the attempt: poll_wait charged them as lock wait).
  const Polled p = poll_wait();
  if (p.status == Poll::kSpun) return {p.cycles, true, true};
  ctx.active_anchor = 0;  // one lock per transaction (Fig. 5 line 4)
  return {cost + p.cycles, false, true};
}

void TxExecutor::open_attempt(Tier tier, Interp& in, State running) {
  attempt_cycles_ = 0;
  if (auto* o = sys_.observer())
    o->tx_begin(core_, sys_.machine().now(), tier, ab_id_, total_attempts());
  ctx_->arm();
  if (sys_.config().scheme == Scheme::kStaggeredSW) sys_.cpc().begin_tx(core_);
  in.start(func_, args_);
  live_ = &in;
  state_ = running;
}

sim::Cycle TxExecutor::begin_attempt() {
  // The kTxSched lock (armed by enter()) is taken before xbegin; neither
  // the acquiring nor the timed-out poll is charged.
  if (waiting()) {
    const Polled p = poll_wait();
    if (p.status == Poll::kSpun) return p.cycles;
  }
  ++attempts_;
  open_attempt(kTierHtm, *spec_interp_, State::kRunning);
  sys_.htm().begin(core_);
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
  // of other cores' events without consulting shared state.
  if (state_ == State::kRunning && sys_.htm().pending_abort(core_) &&
      !step_commutes())
    return handle_abort(AbortCause::None);
  const auto s = live_->step(budget);
  if (waiting()) return s.cycles;  // an ALP lock spin, charged by poll_wait
  // An aborting instruction observed the transaction's death; its cycles
  // are part of the doomed attempt.
  attempt_cycles_ += s.cycles;
  if (s.aborted) {
    ST_CHECK_MSG(state_ != State::kIrrevRunning,
                 "irrevocable execution cannot abort");
    // In the STM tier an StmEnv read failed its orec precheck (locked, or
    // written since our read version): TL2 opacity abort.
    return s.cycles + (state_ == State::kRunning
                           ? handle_abort(AbortCause::None)
                           : stm_abort(AbortCause::StmValidation));
  }
  if (!s.finished) return s.cycles;
  switch (state_) {
    case State::kRunning: return s.cycles + commit_sequence();
    case State::kStmRunning:
      if (sys_.stm()->read_only(core_))
        return s.cycles + stm_commit_step();  // nothing to lock
      // Bounded wait on other writers' orecs, with the advisory-lock
      // timeout: never wait forever while holding locks (writer-writer
      // deadlock). The attempt's instructions leave instrs_retired() until
      // its commit or abort folds them in.
      wait_ = {Wait::On::kOrec, 0, 0, sys_.config().lock_timeout};
      live_ = nullptr;
      state_ = State::kStmLockAcquire;
      return s.cycles;
    default:
      // A serialized execution still commits its atomic block, as the
      // final "attempt" after the failed speculative (HTM + STM) tries.
      finish(*plain_interp_, kTierIrrev, total_attempts() + 1);
      return s.cycles +
             sys_.htm().nontx_store(core_, sys_.glock_addr(), 0, 8).latency;
  }
}

sim::Cycle TxExecutor::commit_sequence() {
  sim::Cycle cost = 0;
  const auto pay = [&](sim::Cycle c) { cost += c; attempt_cycles_ += c; };
  // Lazy subscription: read the global fallback lock transactionally right
  // before commit (§6 "Compiler and HTM Runtime"). The unsafe knob models
  // a build with the subscription compiled out (checker validation only).
  if (!sys_.config().unsafe_skip_subscription) {
    const auto sub = sys_.htm().load(core_, sys_.glock_addr(), 8, 0);
    pay(sub.latency);
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
        pay(w.latency);
        if (!w.ok) return cost + handle_abort(AbortCause::None);
        if (stm::orec_locked(w.value))
          return cost + handle_abort(AbortCause::StmLock);
      }
      const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
      pay(clk.latency);
      if (!clk.ok) return cost + handle_abort(AbortCause::None);
      stm_wv = clk.value + 1;
      pay(sys_.htm().nontx_store(core_, stm->clock_addr(), stm_wv, 8).latency);
      stamp_orecs = &orecs;
    }
  }

  sim::Cycle publish = 0;
  if (!sys_.htm().commit(core_, &publish))
    return cost + handle_abort(AbortCause::None);

  if (stamp_orecs != nullptr) {
    for (std::uint32_t idx : *stamp_orecs)
      pay(sys_.htm()
              .nontx_store(core_, sys_.stm()->orec_addr(idx),
                           stm::orec_word(stm_wv, false), 8)
              .latency);
  }
  pay(kCommitCost + publish);
  cost += release_on_commit();
  finish(*spec_interp_, kTierHtm, attempts_);
  return cost;
}

sim::Cycle TxExecutor::release_on_commit() {
  const bool held = sys_.locks().holds_lock(core_);
  // "No contention on that lock" (§5.2): nobody queued on the lock AND the
  // transaction needed no retries — evidence the serialization was not
  // earning its keep, so the policy may decay the activation.
  const bool contended =
      sys_.locks().contended_while_held(core_) && total_attempts() > 1;
  const sim::Cycle cost = sys_.locks().release(core_);
  if (sys_.config().scheme != Scheme::kBaseline)
    sys_.policy().on_commit(*ctx_, held, contended, total_attempts() == 1);
  return cost;
}

std::uint64_t TxExecutor::retire(const Interp& in) {
  const std::uint64_t n = in.instrs_executed();
  sys_.stats().core(core_).interp_instrs += n;
  instrs_done_ += n;
  live_ = nullptr;
  return n;
}

void TxExecutor::finish(const Interp& in, Tier tier, unsigned attempts) {
  auto& st = sys_.stats().core(core_);
  if (tier != kTierHtm) ++st.commits;  // HtmSystem counts hardware commits
  if (tier == kTierStm) ++st.stm_commits;
  (tier == kTierIrrev ? st.cycles_irrevocable : st.cycles_useful_tx) +=
      attempt_cycles_;
  st.tx_instrs += retire(in);
  st.h_tx_cycles.add(attempt_cycles_);
  st.h_tx_retries.add(attempts);
  if (auto* o = sys_.observer())
    o->tx_commit(core_, sys_.machine().now(), tier, ab_id_, attempts);
  result_ = in.result();
  // The result crosses into the host (workload next_op logic), which can
  // hand it to any other core: publication point.
  sys_.htm().publish_host_value(core_, result_);
  if (auto* log = sys_.commit_log())
    log->push_back({sys_.machine().now(), core_,
                    static_cast<std::uint16_t>(ab_id_),
                    static_cast<std::uint16_t>(attempts),
                    /*irrevocable=*/tier == kTierIrrev, tier, result_, args_});
  state_ = State::kFinished;
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

  const stagger::PolicyDecision d =
      sys_.policy().on_abort(*ctx_, identified, info.conflict_line);
  if (auto* o = sys_.observer())
    o->policy_decision(core_, sys_.machine().now(),
                       static_cast<std::uint8_t>(d), identified,
                       info.conflict_line);
}

sim::Cycle TxExecutor::handle_abort(AbortCause self_cause) {
  const auto info = sys_.htm().abort(core_, self_cause);
  const sim::Cycle cost = kAbortHandlerCost + sys_.locks().release(core_);
  return cost + abort_tail(*spec_interp_,
                           info.cause == AbortCause::Conflict ? &info : nullptr,
                           State::kBeginAttempt);
}

sim::Cycle TxExecutor::abort_tail(const Interp& in,
                                  const htm::AbortInfo* conflict,
                                  State retry) {
  // With the STM tier on, exhausting HTM retries falls to STM, not the
  // glock — will_glock stays accurate for the blame pipeline.
  const State next = next_tier();
  if (auto* o = sys_.observer())
    o->attempt_abort(core_, sys_.machine().now(), total_attempts(),
                     attempt_cycles_, next == State::kGlockAcquire);
  sys_.stats().core(core_).cycles_wasted_tx += attempt_cycles_;
  // Host-throughput accounting: the doomed attempt's instructions were
  // interpreted even though they never commit.
  retire(in);
  if (conflict != nullptr) resolve_and_train(*conflict);
  return enter(next, retry);
}

sim::Cycle TxExecutor::glock_step() {
  const Polled p = poll_wait();
  if (p.status == Poll::kSpun) return p.cycles;
  ++sys_.stats().core(core_).irrevocable_entries;
  if (auto* o = sys_.observer())
    o->irrevocable(core_, sys_.machine().now(), ab_id_, total_attempts());
  attempt_cycles_ = 0;
  sim::Cycle cost = p.cycles;
  if (auto* stm = sys_.stm()) {
    // Irrevocable writes serialize after everything committed so far: bump
    // the clock once and stamp each stored line's orec at the new version
    // (PlainEnv::store). STM attempts cannot begin under the glock, and
    // live ones fail validation on any stamped orec they read.
    const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
    const std::uint64_t wv = clk.value + 1;
    const auto cs = sys_.htm().nontx_store(core_, stm->clock_addr(), wv, 8);
    cost += clk.latency + cs.latency;
    stm->begin_irrev(core_, wv);
  }
  plain_interp_->start(func_, args_);
  live_ = plain_interp_.get();
  state_ = State::kIrrevRunning;
  return cost;
}

// ---------------------------------------------------------------------------
// STM tier (DESIGN.md §16). Reached only when sys_.stm() != nullptr.
// ---------------------------------------------------------------------------

sim::Cycle TxExecutor::stm_begin_attempt() {
  // STM attempts never start while an irrevocable execution holds the
  // global lock: its plain stores bypass orec locking, so running under it
  // could validate against half-applied state. Wait here (glock holders
  // are short-lived by design); the freeing poll is part of the begin.
  const Polled p = poll_wait();
  if (p.status == Poll::kSpun) return p.cycles;
  ++stm_attempts_;
  open_attempt(kTierStm, *stm_interp_, State::kStmRunning);
  const sim::Cycle cost = kBeginCost + p.cycles + sys_.stm()->begin(core_);
  attempt_cycles_ += cost;
  return cost;
}

sim::Cycle TxExecutor::stm_lock_step() {
  // A concurrent irrevocable execution can stamp (clobber) orecs we hold:
  // bail out rather than validate against its half-applied writes. Seeing
  // the glock free suffices; a finished irrevocable execution's stamps are
  // ordinary version bumps that commit-time validation checks.
  const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
  attempt_cycles_ += g.latency;
  if (g.value != 0) return g.latency + stm_abort(AbortCause::StmGlock);
  // A spin charges the glock load as lock wait too; a timeout charges it
  // but leaves it out of the step's cycles.
  const Polled p = poll_wait(g.latency);
  if (p.status == Poll::kSpun) return p.cycles;
  if (p.status == Poll::kTimedOut)
    return p.cycles + stm_abort(AbortCause::StmLock);
  attempt_cycles_ += p.cycles;
  if (!waiting()) state_ = State::kStmCommit;  // every orec is held
  return g.latency + p.cycles;
}

sim::Cycle TxExecutor::stm_commit_step() {
  auto* stm = sys_.stm();
  sim::Cycle cost = 0;
  const auto pay = [&](sim::Cycle c) { cost += c; attempt_cycles_ += c; };
  if (!stm->read_only(core_)) {
    // Writers must not drain their redo log concurrently with an
    // irrevocable execution's plain stores. (Read-only commits need no such
    // check: validation alone proves they serialize before any in-flight
    // irrevocable writer.)
    const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
    pay(g.latency);
    if (g.value != 0) return cost + stm_abort(AbortCause::StmGlock);
  }
  const auto r = stm->commit(core_);
  pay(r.latency + kCommitCost);
  if (!r.ok) return cost + stm_abort(AbortCause::StmValidation);

  // Committed: perform deferred frees, keep the attempt's allocations.
  for (sim::Addr a : stm_frees_) sys_.heap().try_dealloc(a);
  stm_frees_.clear();
  stm_allocs_.clear();

  cost += release_on_commit();
  finish(*stm_interp_, kTierStm, total_attempts());
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
  if (auto* o = sys_.observer())
    o->tx_abort(core_, sys_.machine().now(),
                {.cause = static_cast<std::uint8_t>(cause),
                 .line = line,
                 .alloc_site = sys_.heap().alloc_site_for(line),
                 .priv_owner = sys_.privacy().private_owner(line),
                 .stm_tier = true},
                {});
  // Orec conflicts are real data conflicts: train the advisory-lock policy
  // across tiers (the CPC map recorded this attempt's ALP visits, so
  // StaggeredSW resolution works the same as for HTM aborts).
  htm::AbortInfo info;
  info.cause = cause;
  info.conflict_line = line;
  return cost + abort_tail(*stm_interp_,
                           cause != AbortCause::StmGlock ? &info : nullptr,
                           State::kStmBeginAttempt);
}

}  // namespace st::runtime
