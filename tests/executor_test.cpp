// TxExecutor lifecycle: retry, backoff, irrevocable fallback, advisory-lock
// hygiene, global-lock subscription.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workloads/dslib/list.hpp"

namespace st::runtime {
namespace {

using testutil::MiniSystem;
using testutil::ScriptTask;

/// Module with one atomic block: counter increment (ab 0) and a long
/// read-modify-write loop over an array (ab 1) for conflict generation.
struct CounterIr {
  MiniSystem ms;
  const ir::StructType* cnt_t;
  sim::Addr counter = 0;

  explicit CounterIr(Scheme scheme = Scheme::kBaseline, unsigned threads = 2,
                     unsigned max_retries = 10, bool traced = false) {
    cnt_t = ms.module.add_type(
        ir::make_struct("counter", {{"v", 0, 8, nullptr}}));
    {
      ir::FunctionBuilder b(ms.module, "ab_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    {
      // Slow increment: burn ~100 instructions between load and store to
      // widen the conflict window.
      ir::FunctionBuilder b(ms.module, "ab_slow_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      const ir::Reg i = b.var(b.const_i(0));
      b.while_([&] { return b.cmp_slt(i, b.const_i(30)); },
               [&] { b.assign(i, b.add(i, b.const_i(1))); });
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    ms.max_retries = max_retries;
    if (traced) ms.trace.path = "in-memory";
    ms.boot(scheme, threads);
    counter = ms.sys->heap().alloc_line_aligned(
        ms.sys->heap().setup_arena(), 8);
  }
};

TEST(Executor, SingleTransactionCommitsAndReturnsValue) {
  CounterIr c;
  EXPECT_EQ(c.ms.run_ab(0, {c.counter}), 0u);
  EXPECT_EQ(c.ms.run_ab(0, {c.counter}), 1u);
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 2u);
  EXPECT_EQ(c.ms.sys->stats().total().commits, 2u);
  EXPECT_EQ(c.ms.sys->stats().total().total_aborts(), 0u);
}

TEST(Executor, ConcurrentIncrementsNeverLoseUpdates) {
  CounterIr c(Scheme::kBaseline, 2);
  std::vector<ScriptTask::Item> items(50, {1, {c.counter}, 10});
  auto t0 = std::make_unique<ScriptTask>(*c.ms.sys, 0, items);
  auto t1 = std::make_unique<ScriptTask>(*c.ms.sys, 1, items);
  c.ms.sys->machine().set_task(0, std::move(t0));
  c.ms.sys->machine().set_task(1, std::move(t1));
  c.ms.sys->run();
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 100u);
  EXPECT_GT(c.ms.sys->stats().total().total_aborts(), 0u);
}

TEST(Executor, AbortsTriggerBackoffCycles) {
  CounterIr c(Scheme::kBaseline, 2);
  std::vector<ScriptTask::Item> items(60, {1, {c.counter}, 5});
  c.ms.sys->machine().set_task(
      0, std::make_unique<ScriptTask>(*c.ms.sys, 0, items));
  c.ms.sys->machine().set_task(
      1, std::make_unique<ScriptTask>(*c.ms.sys, 1, items));
  c.ms.sys->run();
  const auto t = c.ms.sys->stats().total();
  EXPECT_GT(t.aborts_conflict, 0u);
  EXPECT_GT(t.cycles_backoff, 0u);
  EXPECT_GT(t.cycles_wasted_tx, 0u);
}

TEST(Executor, UsefulCyclesAccrueOnCommit) {
  CounterIr c;
  c.ms.run_ab(0, {c.counter});
  const auto& st = c.ms.sys->stats().core(0);
  EXPECT_GT(st.cycles_useful_tx, 0u);
  EXPECT_EQ(st.cycles_wasted_tx, 0u);
  EXPECT_GT(st.tx_instrs, 0u);
}

TEST(Executor, GlockSubscriptionAbortsCommittingTransaction) {
  CounterIr c;
  auto& htm = c.ms.sys->htm();
  // Simulate an irrevocable holder.
  htm.nontx_cas(1, c.ms.sys->glock_addr(), 0, 2);
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  // Drive a few steps: the commit-time subscription must observe the held
  // lock and retry, not commit.
  for (int i = 0; i < 200 && !exec.finished(); ++i) exec.step();
  EXPECT_FALSE(exec.finished());
  EXPECT_GT(c.ms.sys->stats().core(0).aborts_glock, 0u);
  // Release; the executor must then commit.
  htm.nontx_store(1, c.ms.sys->glock_addr(), 0, 8);
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);
}

TEST(Executor, FallsBackToIrrevocableAfterMaxRetries) {
  // One core increments while the other holds every hardware attempt
  // hostage by continuously writing the same line non-transactionally.
  CounterIr c(Scheme::kBaseline, 2);
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(1, {c.counter});
  auto& htm = c.ms.sys->htm();
  int steps = 0;
  while (!exec.finished() && steps < 200000) {
    exec.step();
    // Adversary: keep dirtying the counter line from core 1.
    if (steps % 2 == 0 && !htm.active(1))
      htm.plain_store(1, c.counter + 8, steps, 8);
    ++steps;
  }
  ASSERT_TRUE(exec.finished());
  exec.take_result();
  const auto& st = c.ms.sys->stats().core(0);
  EXPECT_EQ(st.irrevocable_entries, 1u);
  EXPECT_GE(st.aborts_conflict, c.ms.sys->config().max_retries);
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);  // still exactly once
}

TEST(Executor, StaggeredReleasesAdvisoryLockOnCommit) {
  // A staggered run over the shared list must end with no lock held.
  ir::Module* m = nullptr;
  MiniSystem ms;
  m = &ms.module;
  auto lib = workloads::dslib::build_list_lib(*m);
  m->add_atomic_block(lib.insert);
  ms.boot(Scheme::kStaggered, 2);
  const sim::Addr list = workloads::dslib::host_list_new(
      ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  for (std::uint64_t k = 1; k <= 40; ++k) ms.run_ab(0, {list, 2 * k, 2 * k});
  EXPECT_FALSE(ms.sys->locks().holds_lock(0));
  EXPECT_EQ(workloads::dslib::host_list_validate(ms.sys->heap(), lib, list,
                                                /*require_sorted=*/true),
            "");
  EXPECT_EQ(workloads::dslib::host_list_items(ms.sys->heap(), lib, list).size(),
            40u);
}

TEST(Executor, ResultOfCommittedBlockIsReturned) {
  CounterIr c;
  EXPECT_EQ(c.ms.run_ab(1, {c.counter}), 0u);  // slow inc returns old value
  EXPECT_EQ(c.ms.run_ab(1, {c.counter}), 1u);
}

// ---- waits ------------------------------------------------------------------

TEST(ExecutorWait, TxSchedLockTimeoutProceedsUnprotected) {
  // kTxSched with block 0's predictor fired and its whole-transaction lock
  // held by core 1: core 0's first attempt waits for the lock, times out
  // and runs unprotected.
  CounterIr c(Scheme::kTxSched, 2, /*max_retries=*/10, /*traced=*/true);
  const sim::Addr key = c.ms.sys->glock_addr() + sim::kLineBytes * 1;
  ASSERT_TRUE(c.ms.sys->locks().try_acquire(1, key).acquired);
  c.ms.sys->abctx(0, 0).configured_anchor = 1;
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  const auto& st = c.ms.sys->stats().core(0);
  sim::Cycle last_spin = 0;
  for (int i = 0; i < 10000 && st.alp_timeouts == 0; ++i) {
    const sim::Cycle waited = st.cycles_lock_wait;
    exec.step();
    if (st.cycles_lock_wait != waited) last_spin = st.cycles_lock_wait - waited;
  }
  ASSERT_EQ(st.alp_timeouts, 1u);
  const sim::Cycle waited = st.cycles_lock_wait;
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(st.alp_acquires, 0u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);

  // The timeout event carries every polled cycle: the charged spins plus
  // the timed-out poll, which costs what the spin before it did (both hit
  // the lock line in L1) but is not charged as lock wait.
  unsigned timeouts = 0;
  for (const obs::Record& r : c.ms.sys->observer()->chronological(0)) {
    if (r.kind() != obs::EventKind::kLockTimeout) continue;
    const obs::Event& e = r.event;
    ++timeouts;
    EXPECT_EQ(e.a32, c.ms.sys->locks().lock_index(key));
    EXPECT_EQ(e.a64, waited + last_spin);
    EXPECT_GT(e.a64, c.ms.sys->config().lock_timeout);
  }
  EXPECT_EQ(timeouts, 1u);
  EXPECT_LE(waited, c.ms.sys->config().lock_timeout);
}

TEST(ExecutorWait, GlockCasWaitNeverTimesOut) {
  // max_retries 0 goes straight to the global lock, which core 1 holds for
  // ten lock timeouts' worth of polling: core 0 keeps waiting.
  CounterIr c(Scheme::kBaseline, 2, /*max_retries=*/0);
  auto& htm = c.ms.sys->htm();
  const sim::Addr glock = c.ms.sys->glock_addr();
  ASSERT_TRUE(htm.nontx_cas(1, glock, 0, 2).success);
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  const auto& st = c.ms.sys->stats().core(0);
  const sim::Cycle limit = 10 * c.ms.sys->config().lock_timeout;
  sim::Cycle spent = 0;
  while (spent <= limit) spent += exec.step();
  EXPECT_FALSE(exec.finished());
  EXPECT_EQ(st.cycles_lock_wait, spent);  // every step was a charged poll
  EXPECT_EQ(st.irrevocable_entries, 0u);
  EXPECT_EQ(st.alp_timeouts, 0u);
  htm.nontx_store(1, glock, 0, 8);
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(st.irrevocable_entries, 1u);
  EXPECT_EQ(st.cycles_lock_wait, spent);  // the acquiring CAS is not a wait
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);
}

/// Runs one atomic block to completion as a machine task, counting the
/// scheduler events it took.
struct BlockTask final : sim::CoreTask {
  BlockTask(TxSystem& sys, sim::CoreId core, unsigned ab,
            std::vector<std::uint64_t> args)
      : exec(sys, core) {
    exec.start(ab, std::move(args));
  }
  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    ++steps;
    return exec.step(m.fuse_budget());
  }
  bool done() const override { return exec.finished(); }
  TxExecutor exec;
  unsigned steps = 0;
};

/// Idles until clock `at`, then stores to `addr` nontransactionally.
struct StoreAtTask final : sim::CoreTask {
  StoreAtTask(TxSystem& sys, sim::Addr addr, sim::Cycle at)
      : sys_(sys), addr_(addr), at_(at) {}
  sim::Cycle step(sim::Machine&, sim::CoreId core) override {
    if (!idled_) {
      idled_ = true;
      return at_;
    }
    done_ = true;
    return sys_.htm().nontx_store(core, addr_, 7, 8).latency;
  }
  bool done() const override { return done_; }
  TxSystem& sys_;
  sim::Addr addr_;
  sim::Cycle at_;
  bool idled_ = false;
  bool done_ = false;
};

struct StampedWait {
  std::vector<std::pair<obs::EventKind, sim::Cycle>> events;  // core 0's
  sim::CoreStats stats;                                        // core 0's
  std::string stats_json;  // every counter and histogram of `stats`
  sim::Cycle end = 0;
  unsigned steps = 0;
};

/// Core 0 reads line A in a hardware transaction, then waits at an ALPoint
/// for the advisory lock of line B, which core 1 holds throughout. At
/// clock 1000 core 2 stores to A, stamping core 0 mid-wait.
StampedWait run_stamped_wait(bool fusion) {
  MiniSystem ms;
  const ir::StructType* a_t =
      ms.module.add_type(ir::make_struct("a", {{"v", 0, 8, nullptr}}));
  const ir::StructType* b_t =
      ms.module.add_type(ir::make_struct("b", {{"v", 0, 8, nullptr}}));
  ir::FunctionBuilder fb(ms.module, "ab_a_then_b", {a_t, b_t});
  const ir::Reg v = fb.load_field(fb.param(0), a_t, "v");
  const ir::Reg w = fb.load_field(fb.param(1), b_t, "v");
  fb.store_field(fb.param(1), b_t, "v", fb.add(v, w));
  fb.ret(v);
  ms.module.add_atomic_block(fb.function());
  ms.trace.path = "in-memory";
  ms.boot(Scheme::kStaggered, 3);
  TxSystem& sys = *ms.sys;
  sys.machine().set_step_fusion(fusion);
  sim::Heap& heap = sys.heap();
  const sim::Addr a = heap.alloc_line_aligned(heap.setup_arena(), 8);
  const sim::Addr b = heap.alloc_line_aligned(heap.setup_arena(), 8);

  // Activate the ALPoint in front of B's load (the block's last one).
  std::uint32_t alp_b = 0;
  for (const auto& bb : fb.function()->blocks())
    for (const auto& ins : bb->instrs())
      if (ins.op == ir::Op::AlPoint) alp_b = ins.alp_id;
  EXPECT_GE(ms.prog.alp_count, 2u);
  stagger::ABContext& ctx = sys.abctx(0, 0);
  ctx.configured_anchor = alp_b;
  ctx.block_address = b;
  EXPECT_TRUE(sys.locks().try_acquire(1, b).acquired);

  auto task = std::make_unique<BlockTask>(sys, 0, 0,
                                          std::vector<std::uint64_t>{a, b});
  BlockTask* waiter = task.get();
  sys.machine().set_task(0, std::move(task));
  sys.machine().set_task(2, std::make_unique<StoreAtTask>(sys, a, 1000));
  StampedWait out;
  out.end = sys.run();
  waiter->exec.take_result();
  for (const obs::Record& r : sys.observer()->chronological(0))
    out.events.emplace_back(r.kind(), r.at());
  out.stats = sys.stats().core(0);
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  obs::write_core_stats_json(f, out.stats);
  std::fclose(f);
  out.stats_json.assign(buf, len);
  std::free(buf);
  out.steps = waiter->steps;
  return out;
}

TEST(ExecutorWait, StampedParkedAlpWaiterAbortsLikeSingleStepping) {
  const StampedWait on = run_stamped_wait(true);
  const StampedWait off = run_stamped_wait(false);
  // The stamp aborts the waiting attempt at its first poll slot after it;
  // the policy then drops the ALP, and the retry commits.
  EXPECT_EQ(on.stats.aborts_conflict, 1u);
  EXPECT_EQ(on.stats.commits, 1u);
  sim::Cycle aborted_at = 0;
  unsigned fired = 0;
  for (const auto& [kind, at] : on.events) {
    if (kind == obs::EventKind::kTxAbort) aborted_at = at;
    if (kind == obs::EventKind::kAlpFired) ++fired;
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_GT(aborted_at, 1000u);
  EXPECT_LE(aborted_at, 1000u + 10);  // polls are 10 cycles apart
  EXPECT_GT(on.stats.cycles_lock_wait, 500u);
  // Parked, the wait took a handful of events instead of one per poll.
  EXPECT_LT(4 * on.steps, off.steps);
  // Everything simulated matches the single-stepped run.
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(on.end, off.end);
  EXPECT_EQ(on.stats_json, off.stats_json);
}

TEST(ExecutorDeath, StartWhileBusyDies) {
  CounterIr c;
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  EXPECT_DEATH(exec.start(0, {c.counter}), "busy");
}

TEST(ExecutorDeath, StepWhenIdleDies) {
  CounterIr c;
  TxExecutor exec(*c.ms.sys, 0);
  EXPECT_DEATH(exec.step(), "idle");
}

}  // namespace
}  // namespace st::runtime
