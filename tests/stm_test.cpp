// src/stm: the TL2 fallback tier. Orec-word encoding and index hashing,
// Bloom summaries, STAGTM_STM_* / STAGTM_MAX_RETRIES env contracts, direct
// executor-level hybrid runs, and the workload-level hybrid matrix:
// determinism across step fusion on/off, serializability via the
// serial-replay oracle, and tier accounting in commit logs and counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "check/check.hpp"
#include "check/oracle.hpp"
#include "ir/builder.hpp"
#include "stm/stm.hpp"
#include "test_util.hpp"

namespace st::stm {
namespace {

// ---- orec word encoding ----------------------------------------------------

TEST(StmOrec, WordEncodingRoundTrips) {
  EXPECT_EQ(orec_word(0, false), 0u);
  EXPECT_FALSE(orec_locked(orec_word(0, false)));
  EXPECT_TRUE(orec_locked(orec_word(0, true)));
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{57},
                          std::uint64_t{1} << 40, std::uint64_t{1} << 62,
                          (std::uint64_t{1} << 62) - 1}) {
    EXPECT_EQ(orec_version(orec_word(v, false)), v);
    EXPECT_EQ(orec_version(orec_word(v, true)), v);
    EXPECT_FALSE(orec_locked(orec_word(v, false)));
    EXPECT_TRUE(orec_locked(orec_word(v, true)));
  }
}

TEST(StmOrec, VersionNearOverflowKeepsLockBitIntact) {
  // The clock bumps by 1 per writer commit; 2^62 commits is unreachable in
  // simulation, but the encoding must stay monotone and lossless right up
  // to the top bit so a saturated run degrades loudly, not silently.
  const std::uint64_t top = std::uint64_t{1} << 62;
  EXPECT_GT(orec_word(top, false), orec_word(top - 1, false));
  EXPECT_EQ(orec_version(orec_word(top, true)), top);
  EXPECT_TRUE(orec_locked(orec_word(top, true)));
}

// ---- Bloom filter ----------------------------------------------------------

TEST(StmBloom, NoFalseNegatives) {
  Bloom64 b;
  for (std::uint32_t k = 0; k < 200; ++k)
    b.add(Bloom64::mask(k * 2654435761u));
  for (std::uint32_t k = 0; k < 200; ++k)
    EXPECT_TRUE(b.maybe(Bloom64::mask(k * 2654435761u))) << k;
}

TEST(StmBloom, ClearBitProvesAbsenceAndClearResets) {
  Bloom64 b;
  b.add(Bloom64::mask(42));
  // Find a key whose mask is disjoint from the filter: provably absent.
  bool found_negative = false;
  for (std::uint32_t k = 0; k < 4096; ++k) {
    if ((Bloom64::mask(k) & b.bits) == 0) {
      EXPECT_FALSE(b.maybe(Bloom64::mask(k)));
      found_negative = true;
      break;
    }
  }
  EXPECT_TRUE(found_negative);
  b.clear();
  EXPECT_EQ(b.bits, 0u);
  EXPECT_FALSE(b.maybe(Bloom64::mask(42)));
}

TEST(StmBloom, FalsePositivesExistAndMustBeResolvedExactly) {
  // A 64-bit/2-hash filter over many keys saturates; the maybe() answer is
  // only a hint (the read/write sets resolve it exactly). Document that the
  // false-positive case is real, so the fallback paths are actually hit.
  Bloom64 b;
  for (std::uint32_t k = 0; k < 64; ++k) b.add(Bloom64::mask(k));
  unsigned positives = 0;
  for (std::uint32_t k = 1000; k < 1100; ++k)
    positives += b.maybe(Bloom64::mask(k));
  EXPECT_GT(positives, 0u);
}

// ---- orec index hashing ----------------------------------------------------

/// Tiny machine with the STM tier on, for orec-table level assertions.
struct StmMini {
  testutil::MiniSystem ms;
  sim::Addr counter = 0;

  explicit StmMini(unsigned orecs = 16, unsigned threads = 2,
                   unsigned max_retries = 0, unsigned stm_retries = 8) {
    const ir::StructType* cnt_t = ms.module.add_type(
        ir::make_struct("counter", {{"v", 0, 8, nullptr}}));
    {
      ir::FunctionBuilder b(ms.module, "ab_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    {
      // Widened conflict window (~30 filler instructions) between the load
      // and the store, so concurrent STM attempts really overlap.
      ir::FunctionBuilder b(ms.module, "ab_slow_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      const ir::Reg i = b.var(b.const_i(0));
      b.while_([&] { return b.cmp_slt(i, b.const_i(30)); },
               [&] { b.assign(i, b.add(i, b.const_i(1))); });
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    ms.stm.enabled = true;
    ms.stm.orecs = orecs;
    ms.stm.retries = stm_retries;
    ms.max_retries = max_retries;
    ms.boot(runtime::Scheme::kBaseline, threads);
    counter =
        ms.sys->heap().alloc_line_aligned(ms.sys->heap().setup_arena(), 8);
  }

  StmSystem& stm() { return *ms.sys->stm(); }
};

TEST(StmRedoLog, SubWordStoreIntoPartlyWrittenChunkReadsBack) {
  StmMini m;
  sim::Heap& heap = m.ms.sys->heap();
  const sim::Addr a = m.counter;
  heap.store(a, 0x1122334455667788ull, 8);
  StmSystem& stm = m.stm();
  stm.begin(0);
  stm.write(0, a, 0xCC, 1);
  stm.write(0, a + 2, 0xAABB, 2);  // same chunk, already partly written
  EXPECT_EQ(stm.read(0, a, 8, 1).value, 0x11223344AABB77CCull);
  EXPECT_EQ(stm.read(0, a + 2, 2, 2).value, 0xAABBu);
  EXPECT_EQ(stm.read(0, a + 1, 1, 3).value, 0x77u);
  EXPECT_EQ(stm.read(0, a + 4, 4, 4).value, 0x11223344u);
  EXPECT_EQ(heap.load(a, 8), 0x1122334455667788ull);  // nothing written yet
  while (stm.lock_next(0).status == StmSystem::LockStatus::kAdvanced) {
  }
  ASSERT_TRUE(stm.commit(0).ok);
  EXPECT_EQ(heap.load(a, 8), 0x11223344AABB77CCull);
}

TEST(StmOrecIndex, LineGranularAndTableBounded) {
  StmMini m(64);
  const sim::Addr base = 0x10000;
  // Every byte of a cache line maps to the same orec.
  const std::uint32_t idx = m.stm().orec_index(base);
  for (unsigned off = 1; off < sim::kLineBytes; ++off)
    EXPECT_EQ(m.stm().orec_index(base + off), idx) << off;
  // All indices stay inside the table.
  for (sim::Addr a = base; a < base + (1u << 16); a += sim::kLineBytes)
    EXPECT_LT(m.stm().orec_index(a), 64u);
}

TEST(StmOrecIndex, CollisionsExistAndHashSpreads) {
  // 16 orecs x 1000 distinct lines: collisions are guaranteed (pigeonhole);
  // the mixer must still spread lines across most of the tiny table rather
  // than clustering adjacent lines into one bucket.
  StmMini m(16);
  std::set<std::uint32_t> used;
  bool collided = false;
  std::set<std::uint32_t> seen_for_collision;
  for (unsigned i = 0; i < 1000; ++i) {
    const std::uint32_t idx =
        m.stm().orec_index(0x40000 + i * sim::kLineBytes);
    if (!seen_for_collision.insert(idx).second) collided = true;
    used.insert(idx);
  }
  EXPECT_TRUE(collided);
  EXPECT_GE(used.size(), 12u);  // >= 3/4 of the 16 buckets exercised
}

// ---- env knob contract -----------------------------------------------------

void clear_stm_env() {
  for (const char* k : {"STAGTM_STM", "STAGTM_STM_RETRIES",
                        "STAGTM_STM_ORECS", "STAGTM_MAX_RETRIES"})
    unsetenv(k);
}

TEST(StmEnv, DefaultsOffWithPaperRetryBudget) {
  clear_stm_env();
  const workloads::RunOptions o = workloads::options_from_env();
  EXPECT_FALSE(o.stm.enabled);
  EXPECT_EQ(o.stm.retries, 8u);
  EXPECT_EQ(o.stm.orecs, 4096u);
  EXPECT_EQ(o.max_retries, 10u);
}

TEST(StmEnv, ParsesEveryKnob) {
  clear_stm_env();
  ASSERT_EQ(setenv("STAGTM_STM", "on", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM_RETRIES", "3", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM_ORECS", "256", 1), 0);
  ASSERT_EQ(setenv("STAGTM_MAX_RETRIES", "0", 1), 0);
  const workloads::RunOptions o = workloads::options_from_env();
  EXPECT_TRUE(o.stm.enabled);
  EXPECT_EQ(o.stm.retries, 3u);
  EXPECT_EQ(o.stm.orecs, 256u);
  EXPECT_EQ(o.max_retries, 0u);
  clear_stm_env();
}

using StmEnvDeath = ::testing::Test;

TEST(StmEnvDeath, RejectsMalformedValuesWithExit2) {
  clear_stm_env();
  ASSERT_EQ(setenv("STAGTM_STM", "banana", 1), 0);
  EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_STM");
  ASSERT_EQ(setenv("STAGTM_STM", "on", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM_RETRIES", "1001", 1), 0);
  EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_STM_RETRIES");
  ASSERT_EQ(setenv("STAGTM_STM_RETRIES", "8", 1), 0);
  for (const char* bad : {"100", "0", "8", "2097152", "x"}) {
    ASSERT_EQ(setenv("STAGTM_STM_ORECS", bad, 1), 0);
    EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
                "STAGTM_STM_ORECS")
        << bad;
  }
  clear_stm_env();
}

TEST(StmEnvDeath, MaxRetriesKnobValidates) {
  clear_stm_env();
  for (const char* bad : {"banana", "-1", "100001"}) {
    ASSERT_EQ(setenv("STAGTM_MAX_RETRIES", bad, 1), 0);
    EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
                "STAGTM_MAX_RETRIES")
        << bad;
  }
  clear_stm_env();
}

// ---- executor-level hybrid runs --------------------------------------------

TEST(StmExecutor, SoloTransactionCommitsThroughStmTier) {
  StmMini m(/*orecs=*/64, /*threads=*/1, /*max_retries=*/0);
  EXPECT_EQ(m.ms.run_ab(0, {m.counter}), 0u);
  EXPECT_EQ(m.ms.run_ab(0, {m.counter}), 1u);
  EXPECT_EQ(m.ms.sys->heap().load(m.counter, 8), 2u);
  const auto t = m.ms.sys->stats().total();
  EXPECT_EQ(t.commits, 2u);
  EXPECT_EQ(t.stm_commits, 2u);
  EXPECT_EQ(t.irrevocable_entries, 0u);
}

TEST(StmExecutor, ConcurrentStmIncrementsNeverLoseUpdates) {
  StmMini m(/*orecs=*/64, /*threads=*/2, /*max_retries=*/0);
  std::vector<testutil::ScriptTask::Item> items(50, {1, {m.counter}, 10});
  m.ms.sys->machine().set_task(
      0, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 0, items));
  m.ms.sys->machine().set_task(
      1, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 1, items));
  m.ms.sys->run();
  EXPECT_EQ(m.ms.sys->heap().load(m.counter, 8), 100u);
  const auto t = m.ms.sys->stats().total();
  EXPECT_EQ(t.commits, 100u);
  // Contended single-counter increments: the tier must both commit STM
  // transactions and abort some on real orec conflicts.
  EXPECT_GT(t.stm_commits, 0u);
  EXPECT_GT(t.stm_aborts_validation + t.stm_aborts_lock, 0u);
  EXPECT_GT(t.stm_lock_acquires, 0u);
}

TEST(StmExecutor, TinyOrecTableStillCorrectUnderCollisions) {
  // 16 orecs guarantee cross-address collisions; correctness must not
  // depend on the table size (only conflict precision does).
  StmMini m(/*orecs=*/16, /*threads=*/2, /*max_retries=*/0);
  std::vector<testutil::ScriptTask::Item> items(40, {1, {m.counter}, 7});
  m.ms.sys->machine().set_task(
      0, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 0, items));
  m.ms.sys->machine().set_task(
      1, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 1, items));
  m.ms.sys->run();
  EXPECT_EQ(m.ms.sys->heap().load(m.counter, 8), 80u);
}

TEST(StmExecutor, ExhaustedStmRetriesFallToGlock) {
  // One STM retry under heavy contention: some blocks must exhaust the STM
  // budget and finish irrevocably; every op still commits exactly once.
  StmMini m(/*orecs=*/64, /*threads=*/2, /*max_retries=*/0,
            /*stm_retries=*/1);
  std::vector<testutil::ScriptTask::Item> items(50, {1, {m.counter}, 5});
  m.ms.sys->machine().set_task(
      0, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 0, items));
  m.ms.sys->machine().set_task(
      1, std::make_unique<testutil::ScriptTask>(*m.ms.sys, 1, items));
  m.ms.sys->run();
  EXPECT_EQ(m.ms.sys->heap().load(m.counter, 8), 100u);
  const auto t = m.ms.sys->stats().total();
  EXPECT_EQ(t.commits, 100u);
  EXPECT_GT(t.irrevocable_entries, 0u);
  EXPECT_EQ(t.commits, t.stm_commits + t.irrevocable_entries);  // no HTM
}

TEST(StmExecutor, BeginWaitsForFreeGlockWithoutStartingAnAttempt) {
  StmMini m(/*orecs=*/64, /*threads=*/2, /*max_retries=*/0);
  auto& htm = m.ms.sys->htm();
  const sim::Addr glock = m.ms.sys->glock_addr();
  ASSERT_TRUE(htm.nontx_cas(1, glock, 0, 2).success);  // irrevocable holder
  runtime::TxExecutor exec(*m.ms.sys, 0);
  exec.start(0, {m.counter});
  const auto& st = m.ms.sys->stats().core(0);
  sim::Cycle spent = 0;
  for (int i = 0; i < 100; ++i) spent += exec.step();
  EXPECT_EQ(st.cycles_lock_wait, spent);  // every step was a charged poll
  EXPECT_FALSE(m.stm().active(0));
  EXPECT_EQ(exec.instrs_retired(), 0u);
  EXPECT_EQ(st.stm_commits + st.stm_aborts_validation + st.stm_aborts_lock +
                st.stm_aborts_glock,
            0u);
  htm.nontx_store(1, glock, 0, 8);
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(st.stm_commits, 1u);
  // The poll that finds the glock free is part of the begin, not a wait.
  EXPECT_EQ(st.cycles_lock_wait, spent);
}

TEST(StmExecutor, OrecWaitTimeoutAbortsWithStmLock) {
  testutil::MiniSystem ms;
  const ir::StructType* cnt_t = ms.module.add_type(
      ir::make_struct("counter", {{"v", 0, 8, nullptr}}));
  {
    // Blind store: the counter's orec is in the write set only, so a held
    // orec is first met by the commit-time lock acquisition.
    ir::FunctionBuilder b(ms.module, "ab_set", {cnt_t});
    b.store_field(b.param(0), cnt_t, "v", b.const_i(7));
    b.ret(b.const_i(0));
    ms.module.add_atomic_block(b.function());
  }
  ms.stm.enabled = true;
  ms.stm.orecs = 64;
  ms.stm.retries = 1;
  ms.max_retries = 0;
  ms.boot(runtime::Scheme::kBaseline, 2);
  const sim::Addr counter =
      ms.sys->heap().alloc_line_aligned(ms.sys->heap().setup_arena(), 8);
  // Another writer holds the counter's orec and never lets go.
  StmSystem& stm = *ms.sys->stm();
  ms.sys->htm().nontx_store(1, stm.orec_addr(stm.orec_index(counter)),
                            orec_word(0, true), 8);
  runtime::TxExecutor exec(*ms.sys, 0);
  exec.start(0, {counter});
  const auto& st = ms.sys->stats().core(0);
  sim::Cycle timeout_step_wait = 0;
  for (int i = 0; i < 10000 && st.stm_aborts_lock == 0; ++i) {
    const sim::Cycle waited = st.cycles_lock_wait;
    exec.step();
    timeout_step_wait = st.cycles_lock_wait - waited;
  }
  ASSERT_EQ(st.stm_aborts_lock, 1u);
  EXPECT_EQ(st.stm_aborts_validation + st.stm_aborts_glock, 0u);
  EXPECT_GT(st.stm_orec_waits, 0u);
  EXPECT_GT(st.cycles_lock_wait, ms.sys->config().lock_timeout);
  // Unlike an advisory-lock timeout, an orec timeout charges its timed-out
  // poll as lock wait too.
  EXPECT_GT(timeout_step_wait, 0u);
  // The one STM attempt is spent: the block commits irrevocably.
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(st.stm_aborts_lock, 1u);
  EXPECT_EQ(st.irrevocable_entries, 1u);
  EXPECT_EQ(ms.sys->heap().load(counter, 8), 7u);
}

// ---- workload-level hybrid matrix ------------------------------------------

workloads::RunOptions hybrid_opts(bool stm_on, unsigned threads = 4,
                                  double scale = 0.05) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = threads;
  o.ops_scale = scale;
  o.max_retries = 2;  // reach the fallback quickly
  o.stm.enabled = stm_on;
  return o;
}

TEST(StmHybrid, OffLeavesEveryStmCounterZero) {
  const auto r = workloads::run_workload("list-hi", hybrid_opts(false));
  EXPECT_EQ(r.totals.stm_commits, 0u);
  EXPECT_EQ(r.totals.stm_aborts_validation, 0u);
  EXPECT_EQ(r.totals.stm_aborts_lock, 0u);
  EXPECT_EQ(r.totals.stm_aborts_glock, 0u);
  EXPECT_EQ(r.totals.stm_orec_waits, 0u);
  EXPECT_EQ(r.totals.stm_lock_acquires, 0u);
}

TEST(StmHybrid, BackoffHistogramFillsUnderContention) {
  const auto r = workloads::run_workload("list-hi", hybrid_opts(false));
  EXPECT_GT(r.totals.cycles_backoff, 0u);
  EXPECT_GT(r.totals.h_tx_backoff.samples, 0u);
  EXPECT_EQ(r.totals.h_tx_backoff.sum, r.totals.cycles_backoff);
}

TEST(StmHybrid, TierAccountingMatchesCommitLog) {
  auto o = hybrid_opts(true);
  o.checked = true;
  const auto r = workloads::run_workload("list-hi", o);
  ASSERT_NE(r.commit_log, nullptr);
  EXPECT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
  std::uint64_t by_tier[3] = {};
  for (const auto& rec : *r.commit_log) {
    ASSERT_LT(rec.tier, 3);
    EXPECT_EQ(rec.irrevocable, rec.tier == 1);
    ++by_tier[rec.tier];
  }
  EXPECT_EQ(by_tier[0] + by_tier[1] + by_tier[2], r.totals.commits);
  EXPECT_EQ(by_tier[1], r.totals.irrevocable_entries);
  EXPECT_EQ(by_tier[2], r.totals.stm_commits);
  EXPECT_GT(r.totals.stm_commits, 0u);  // the tier actually ran
}

TEST(StmHybrid, OracleAcceptsAllTenWorkloads) {
  // Acceptance gate: with the STM tier on, the serial-replay oracle passes
  // on every workload in the suite (deterministic default schedule; the
  // schedule-fuzz ctest entries cover perturbed hybrids).
  for (const auto& [name, factory] : workloads::workload_registry()) {
    (void)factory;
    auto o = hybrid_opts(true, name == "labyrinth" ? 2 : 4, 0.03);
    o.checked = true;
    const auto r = workloads::run_workload(name, o);
    ASSERT_TRUE(r.invariant_failure.empty())
        << name << ": " << r.invariant_failure;
    const auto rep = check::replay_serial(name, o, r);
    EXPECT_TRUE(rep.ok) << name << ": " << rep.divergence;
  }
}

TEST(StmHybrid, PerturbedHybridPassesOracleEagerAndLazy) {
  for (const bool lazy : {false, true}) {
    auto o = hybrid_opts(true);
    o.lazy_htm = lazy;
    check::SchedConfig s;
    s.mode = check::SchedMode::kJitter;
    s.seed = 11;
    const auto v = check::check_once("list-hi", o, s);
    EXPECT_TRUE(v.ok) << (lazy ? "lazy" : "eager") << ": [" << v.stage
                      << "] " << v.failure;
  }
}

TEST(StmHybrid, StmOnlyModePassesOracle) {
  // STAGTM_MAX_RETRIES=0 equivalent: no hardware attempts at all.
  auto o = hybrid_opts(true);
  o.max_retries = 0;
  o.checked = true;
  const auto r = workloads::run_workload("vacation", o);
  ASSERT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
  EXPECT_EQ(r.totals.commits,
            r.totals.stm_commits + r.totals.irrevocable_entries);
  EXPECT_GT(r.totals.stm_commits, 0u);
  const auto rep = check::replay_serial("vacation", o, r);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

TEST(StmHybrid, DeterministicAcrossStepFusion) {
  // The tentpole determinism claim: with the STM tier live (forced via a
  // zero HTM budget so every commit exercises orec traffic), run-ahead
  // produces bit-identical simulated results to single-stepping.
  auto ref_o = hybrid_opts(true, 4, 0.04);
  ref_o.max_retries = 0;
  ref_o.checked = true;
  ref_o.macrostep = false;
  const auto ref = workloads::run_workload("list-hi", ref_o);
  ASSERT_TRUE(ref.invariant_failure.empty()) << ref.invariant_failure;
  ASSERT_NE(ref.commit_log, nullptr);
  auto o = ref_o;
  o.macrostep = true;
  const auto r = workloads::run_workload("list-hi", o);
  ASSERT_EQ(r.cycles, ref.cycles);
  ASSERT_EQ(r.state_digest, ref.state_digest);
  ASSERT_NE(r.commit_log, nullptr);
  ASSERT_EQ(r.commit_log->size(), ref.commit_log->size());
  for (std::size_t i = 0; i < ref.commit_log->size(); ++i) {
    const auto& a = (*ref.commit_log)[i];
    const auto& b = (*r.commit_log)[i];
    ASSERT_EQ(a.cycle, b.cycle) << i;
    ASSERT_EQ(a.core, b.core) << i;
    ASSERT_EQ(a.ab_id, b.ab_id) << i;
    ASSERT_EQ(a.tier, b.tier) << i;
    ASSERT_EQ(a.result, b.result) << i;
  }
}

TEST(StmHybrid, DifferentialMatrixAcrossWorkloads) {
  // Per-workload spot of the full off/on x eager/lazy matrix with step
  // fusion on vs off: a cheap digest-level determinism sweep over the whole
  // suite (the focused test above checks full commit logs on list-hi).
  for (const auto& [name, factory] : workloads::workload_registry()) {
    (void)factory;
    for (const bool stm_on : {false, true}) {
      for (const bool lazy : {false, true}) {
        auto a = hybrid_opts(stm_on, 4, 0.02);
        a.lazy_htm = lazy;
        a.checked = true;
        auto b = a;
        b.macrostep = false;
        const auto ra = workloads::run_workload(name, a);
        const auto rb = workloads::run_workload(name, b);
        ASSERT_EQ(ra.cycles, rb.cycles)
            << name << " stm=" << stm_on << " lazy=" << lazy;
        ASSERT_EQ(ra.state_digest, rb.state_digest)
            << name << " stm=" << stm_on << " lazy=" << lazy;
        ASSERT_EQ(ra.totals.commits, rb.totals.commits);
        ASSERT_EQ(ra.totals.stm_commits, rb.totals.stm_commits);
      }
    }
  }
}

}  // namespace
}  // namespace st::stm
