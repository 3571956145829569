#include <gtest/gtest.h>

#include "htm/htm.hpp"
#include "sim/privacy.hpp"

namespace st::htm {
namespace {

struct Fixture {
  sim::MemConfig cfg;
  sim::MachineStats stats{4};
  sim::Heap heap{5, 1 << 20};
  std::unique_ptr<sim::MemorySystem> mem;
  std::unique_ptr<HtmSystem> htm;
  Addr x, y;

  Fixture() {
    cfg.cores = 4;
    mem = std::make_unique<sim::MemorySystem>(cfg, stats);
    htm = std::make_unique<HtmSystem>(heap, *mem, stats);
    x = heap.alloc_line_aligned(4, 8);
    y = heap.alloc_line_aligned(4, 8);
    heap.store(x, 10, 8);
    heap.store(y, 20, 8);
  }
};

TEST(Htm, SpeculativeStoreIsInvisibleUntilCommit) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 99, 8, 1);
  EXPECT_EQ(f.heap.load(f.x, 8), 10u);  // heap still has the old value
  EXPECT_TRUE(f.htm->commit(0));
  EXPECT_EQ(f.heap.load(f.x, 8), 99u);
}

TEST(Htm, TransactionReadsItsOwnWrites) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 42, 8, 1);
  EXPECT_EQ(f.htm->load(0, f.x, 8, 2).value, 42u);
  // Sub-word read-back of a buffered store.
  f.htm->store(0, f.y, 0xAABB, 2, 3);
  EXPECT_EQ(f.htm->load(0, f.y, 1, 4).value, 0xBBu);
  f.htm->abort(0);
}

TEST(Htm, AbortDiscardsWrites) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 42, 8, 1);
  const auto info = f.htm->abort(0);
  EXPECT_EQ(info.cause, AbortCause::Explicit);
  EXPECT_EQ(f.heap.load(f.x, 8), 10u);
  EXPECT_FALSE(f.htm->active(0));
}

TEST(Htm, RequesterWinsWriteAbortsReader) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.x, 8, 7);
  f.htm->begin(1);
  f.htm->store(1, f.x, 5, 8, 9);  // W after remote R: reader dies
  EXPECT_TRUE(f.htm->pending_abort(0));
  EXPECT_FALSE(f.htm->pending_abort(1));
  const auto info = f.htm->abort(0);
  EXPECT_EQ(info.cause, AbortCause::Conflict);
  EXPECT_EQ(info.conflict_line, sim::line_addr(f.x));
  EXPECT_EQ(info.true_first_pc, 7u);
  EXPECT_EQ(info.aborter, 1u);
  EXPECT_TRUE(f.htm->commit(1));
  EXPECT_EQ(f.heap.load(f.x, 8), 5u);
}

TEST(Htm, RequesterWinsReadAbortsWriter) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 5, 8, 3);
  f.htm->begin(1);
  const auto r = f.htm->load(1, f.x, 8, 4);
  EXPECT_EQ(r.value, 10u);  // requester sees committed data, not speculative
  EXPECT_TRUE(f.htm->pending_abort(0));
  f.htm->abort(0);
  EXPECT_TRUE(f.htm->commit(1));
}

TEST(Htm, WriteWriteConflictAbortsFirstWriter) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 1, 8, 1);
  f.htm->begin(1);
  f.htm->store(1, f.x, 2, 8, 2);
  EXPECT_TRUE(f.htm->pending_abort(0));
  f.htm->abort(0);
  EXPECT_TRUE(f.htm->commit(1));
  EXPECT_EQ(f.heap.load(f.x, 8), 2u);
}

TEST(Htm, ReadersDoNotConflictWithReaders) {
  Fixture f;
  f.htm->begin(0);
  f.htm->begin(1);
  f.htm->load(0, f.x, 8, 1);
  f.htm->load(1, f.x, 8, 2);
  EXPECT_FALSE(f.htm->pending_abort(0));
  EXPECT_FALSE(f.htm->pending_abort(1));
  EXPECT_TRUE(f.htm->commit(0));
  EXPECT_TRUE(f.htm->commit(1));
}

TEST(Htm, DisjointLinesDoNotConflict) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 1, 8, 1);
  f.htm->begin(1);
  f.htm->store(1, f.y, 2, 8, 2);
  EXPECT_TRUE(f.htm->commit(0));
  EXPECT_TRUE(f.htm->commit(1));
}

TEST(Htm, CommitFailsWithPendingAbort) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.x, 8, 1);
  f.htm->begin(1);
  f.htm->store(1, f.x, 5, 8, 2);
  EXPECT_FALSE(f.htm->commit(0));
  f.htm->abort(0);
  f.htm->abort(1);
}

TEST(Htm, OperationsAfterPendingAbortReturnNotOk) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.x, 8, 1);
  f.htm->begin(1);
  f.htm->store(1, f.x, 5, 8, 2);
  EXPECT_FALSE(f.htm->load(0, f.y, 8, 3).ok);
  EXPECT_FALSE(f.htm->store(0, f.y, 1, 8, 4).ok);
  f.htm->abort(0);
  f.htm->abort(1);
}

TEST(Htm, PcTagIsTruncatedToConfiguredBits) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.x, 8, 0x5432A);
  f.htm->begin(1);
  f.htm->store(1, f.x, 1, 8, 1);
  const auto info = f.htm->abort(0);
  EXPECT_EQ(info.pc_tag, 0x32Au);
  EXPECT_EQ(info.true_first_pc, 0x5432Au);
  f.htm->abort(1);
}

TEST(Htm, NontxStoreIsImmediateAndSurvivesAbort) {
  Fixture f;
  f.htm->begin(0);
  f.htm->nontx_store(0, f.y, 777, 8);
  EXPECT_EQ(f.heap.load(f.y, 8), 777u);  // visible before commit
  f.htm->abort(0);
  EXPECT_EQ(f.heap.load(f.y, 8), 777u);  // survives the abort
}

TEST(Htm, NontxLoadDoesNotJoinReadSet) {
  Fixture f;
  f.htm->begin(0);
  f.htm->nontx_load(0, f.y, 8);
  // A remote store to y must NOT abort core 0.
  f.htm->plain_store(1, f.y, 3, 8);
  EXPECT_FALSE(f.htm->pending_abort(0));
  EXPECT_TRUE(f.htm->commit(0));
}

TEST(Htm, NontxLoadSeesOtherThreadsRecentWrites) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.x, 8, 1);  // start the transaction with some read
  f.htm->plain_store(1, f.y, 888, 8);
  EXPECT_EQ(f.htm->nontx_load(0, f.y, 8).value, 888u);
  f.htm->abort(0);
}

TEST(Htm, NontxStoreAbortsRemoteSpeculativeReader) {
  Fixture f;
  f.htm->begin(0);
  f.htm->load(0, f.y, 8, 1);
  f.htm->begin(1);
  f.htm->nontx_store(1, f.y, 5, 8);
  EXPECT_TRUE(f.htm->pending_abort(0));
  f.htm->abort(0);
  EXPECT_TRUE(f.htm->commit(1));
}

TEST(Htm, CasSucceedsOnceAcrossCores) {
  Fixture f;
  const auto r0 = f.htm->nontx_cas(0, f.y, 20, 100);
  EXPECT_TRUE(r0.success);
  EXPECT_EQ(r0.observed, 20u);
  const auto r1 = f.htm->nontx_cas(1, f.y, 20, 200);
  EXPECT_FALSE(r1.success);
  EXPECT_EQ(r1.observed, 100u);
  EXPECT_EQ(f.heap.load(f.y, 8), 100u);
}

TEST(Htm, TxAllocRolledBackOnAbortKeptOnCommit) {
  Fixture f;
  const auto live0 = f.heap.live_blocks();
  f.htm->begin(0);
  f.htm->tx_alloc(0, 64);
  f.htm->abort(0);
  EXPECT_EQ(f.heap.live_blocks(), live0);
  f.htm->begin(0);
  f.htm->tx_alloc(0, 64);
  EXPECT_TRUE(f.htm->commit(0));
  EXPECT_EQ(f.heap.live_blocks(), live0 + 1);
}

TEST(Htm, TxFreeDeferredToCommitCancelledOnAbort) {
  Fixture f;
  const Addr blk = f.heap.alloc(0, 64);
  const auto live0 = f.heap.live_blocks();
  f.htm->begin(0);
  f.htm->tx_free(0, blk);
  EXPECT_EQ(f.heap.live_blocks(), live0);  // not freed yet
  f.htm->abort(0);
  EXPECT_EQ(f.heap.live_blocks(), live0);  // cancelled
  f.htm->begin(0);
  f.htm->tx_free(0, blk);
  EXPECT_TRUE(f.htm->commit(0));
  EXPECT_EQ(f.heap.live_blocks(), live0 - 1);
}

TEST(Htm, AbortCausesAreCounted) {
  Fixture f;
  f.htm->begin(0);
  f.htm->abort(0, AbortCause::Glock);
  f.htm->begin(0);
  f.htm->abort(0);
  EXPECT_EQ(f.stats.core(0).aborts_glock, 1u);
  EXPECT_EQ(f.stats.core(0).aborts_explicit, 1u);
}

TEST(Htm, AbortTraceFeedsLocalityMetrics) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    f.htm->begin(0);
    f.htm->load(0, f.x, 8, 33);
    f.htm->begin(1);
    f.htm->store(1, f.x, 1, 8, 2);
    f.htm->abort(0);
    f.htm->commit(1);
  }
  EXPECT_EQ(f.stats.abort_trace().size(), 4u);
  EXPECT_DOUBLE_EQ(f.stats.conflict_addr_locality(), 1.0);
  EXPECT_DOUBLE_EQ(f.stats.conflict_pc_locality(), 1.0);
}

// Loads read the write buffer only on lines carrying tx_write; every other
// load goes straight to the heap. Each case runs eager and lazy.
struct WbFixture {
  sim::MemConfig cfg;
  sim::MachineStats stats{4};
  sim::Heap heap{5, 1 << 20};
  sim::PrivacyMap priv{heap};
  std::unique_ptr<sim::MemorySystem> mem;
  std::unique_ptr<HtmSystem> htm;
  Addr x, y;

  explicit WbFixture(bool lazy) {
    cfg.cores = 4;
    cfg.lazy_conflicts = lazy;
    mem = std::make_unique<sim::MemorySystem>(cfg, stats);
    htm = std::make_unique<HtmSystem>(heap, *mem, stats);
    heap.set_privacy(&priv);
    priv.set_sink(mem.get());
    mem->set_privacy(&priv);
    htm->set_privacy(&priv);
    x = heap.alloc_line_aligned(4, 64);  // setup arena: shared
    y = heap.alloc_line_aligned(4, 64);
    heap.store(x, 10, 8);
    heap.store(y, 20, 8);
  }
  bool written(CoreId c, Addr a) const {
    const sim::L1Line* l = mem->peek_l1(c, sim::line_addr(a));
    return l != nullptr && l->tx_write;
  }
};

TEST(HtmWriteBuffer, StoreThenLoadSameWord) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    WbFixture f(lazy);
    f.htm->begin(0);
    EXPECT_EQ(f.htm->load(0, f.x, 8, 1).value, 10u);
    EXPECT_FALSE(f.written(0, f.x));
    ASSERT_TRUE(f.htm->store(0, f.x, 42, 8, 2).ok);
    EXPECT_TRUE(f.written(0, f.x));
    EXPECT_EQ(f.htm->load(0, f.x, 8, 3).value, 42u);
    EXPECT_EQ(f.heap.load(f.x, 8), 10u);
    EXPECT_TRUE(f.htm->commit(0));
    EXPECT_EQ(f.heap.load(f.x, 8), 42u);
  }
}

TEST(HtmWriteBuffer, PartlyWrittenChunkMergesHeapBytes) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    WbFixture f(lazy);
    f.heap.store(f.x, 0x1122334455667788ull, 8);
    f.htm->begin(0);
    ASSERT_TRUE(f.htm->store(0, f.x + 2, 0xAABB, 2, 1).ok);
    EXPECT_EQ(f.htm->load(0, f.x, 8, 2).value, 0x11223344AABB7788ull);
    EXPECT_EQ(f.htm->load(0, f.x, 2, 3).value, 0x7788u);
    EXPECT_EQ(f.htm->load(0, f.x + 4, 4, 4).value, 0x11223344u);
    EXPECT_EQ(f.htm->load(0, f.x + 2, 2, 5).value, 0xAABBu);
    f.htm->abort(0);
    EXPECT_EQ(f.heap.load(f.x, 8), 0x1122334455667788ull);
  }
}

TEST(HtmWriteBuffer, UnwrittenWordOnWrittenLineReadsHeap) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    WbFixture f(lazy);
    f.heap.store(f.x + 8, 0x55, 8);
    f.htm->begin(0);
    ASSERT_TRUE(f.htm->store(0, f.x, 1, 8, 1).ok);
    EXPECT_TRUE(f.written(0, f.x + 8));
    EXPECT_EQ(f.htm->load(0, f.x + 8, 8, 2).value, 0x55u);
    EXPECT_EQ(f.htm->load(0, f.y, 8, 3).value, 20u);  // unwritten line
    EXPECT_FALSE(f.written(0, f.y));
    EXPECT_TRUE(f.htm->commit(0));
  }
}

TEST(HtmWriteBuffer, PrivateWrittenLineSurvivesConflictStamp) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    WbFixture f(lazy);
    const Addr p = f.heap.alloc_line_aligned(0, 64);  // private to core 0
    ASSERT_TRUE(f.priv.private_to(0, p));
    f.heap.store(p, 7, 8);
    f.heap.store(p + 8, 8, 8);
    f.htm->begin(0);
    ASSERT_TRUE(f.htm->store(0, p, 70, 8, 1).ok);
    ASSERT_TRUE(f.htm->store(0, f.x, 99, 8, 2).ok);
    f.htm->plain_store(1, f.x, 5, 8);  // stamps core 0 (requester wins)
    ASSERT_TRUE(f.htm->pending_abort(0));
    // The stamp dropped the shared written line, so its load fails...
    EXPECT_EQ(f.mem->peek_l1(0, f.x), nullptr);
    EXPECT_FALSE(f.htm->load(0, f.x, 8, 3).ok);
    // ...while the private written line stays resident and written: loads
    // of it still merge the buffer.
    EXPECT_TRUE(f.written(0, p));
    const auto r = f.htm->load(0, p, 8, 4);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 70u);
    EXPECT_EQ(f.htm->load(0, p + 8, 8, 5).value, 8u);
    EXPECT_EQ(f.htm->abort(0).cause, AbortCause::Conflict);
    EXPECT_EQ(f.heap.load(p, 8), 7u);
    EXPECT_EQ(f.heap.load(f.x, 8), 5u);
  }
}

// Private lines keep their directory entries, so with the privacy map wired
// the directory and the L1s agree in both directions after every step:
// private misses, hits, evictions, an escape, a commit and two aborts.
TEST(HtmPrivateLines, DirectoryStaysExactAfterEveryStep) {
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    WbFixture f(lazy);
    const auto check = [&] { f.mem->check_invariants(); };
    // Nine lines of core 0's arena in one 8-way L1 set, and two more lines.
    const Addr stride = Addr{f.cfg.l1.sets()} * sim::kLineBytes;
    const Addr p = f.heap.alloc_line_aligned(0, 9 * stride);
    const Addr q = f.heap.alloc_line_aligned(0, 64);
    const Addr r = f.heap.alloc_line_aligned(0, 64);
    for (Addr a : {p, q, r}) ASSERT_TRUE(f.priv.private_to(0, a));

    f.htm->plain_load(0, p, 8);  // private load miss
    check();
    EXPECT_EQ(f.mem->dir_owner(p), 0);
    f.htm->plain_store(0, p + stride, 1, 8);  // private store miss
    check();
    f.htm->plain_load(0, p, 8);  // hit
    check();
    f.htm->plain_store(0, p, 2, 8);  // hit, E -> M
    check();
    for (unsigned k = 2; k < 9; ++k) {  // the last fill evicts p + stride
      f.htm->plain_load(0, p + k * stride, 8);
      check();
    }
    EXPECT_EQ(f.mem->peek_l1(0, p + stride), nullptr);
    EXPECT_TRUE(f.mem->dir_sharers(p + stride).none());

    // Commit: q's address, stored to a shared line, escapes q at the drain.
    f.htm->begin(0);
    ASSERT_TRUE(f.htm->store(0, q, 5, 8, 1).ok);
    check();
    ASSERT_TRUE(f.htm->load(0, q, 8, 2).ok);
    check();
    ASSERT_TRUE(f.htm->store(0, f.x, q, 8, 3).ok);
    check();
    EXPECT_TRUE(f.htm->commit(0));
    check();
    EXPECT_FALSE(f.priv.private_to(0, q));
    f.htm->plain_load(1, q, 8);  // the owner forwards the escaped line
    check();
    EXPECT_TRUE(f.mem->dir_sharers(q).test(1));

    // Conflict abort: the stamp spares private r; the abort drops it.
    f.htm->begin(0);
    ASSERT_TRUE(f.htm->store(0, r, 7, 8, 4).ok);
    check();
    ASSERT_TRUE(f.htm->store(0, f.y, 8, 8, 5).ok);
    check();
    f.htm->plain_store(1, f.y, 9, 8);
    check();
    ASSERT_TRUE(f.htm->pending_abort(0));
    EXPECT_NE(f.mem->peek_l1(0, r), nullptr);
    EXPECT_EQ(f.htm->abort(0).cause, AbortCause::Conflict);
    check();
    EXPECT_EQ(f.mem->peek_l1(0, r), nullptr);
    EXPECT_TRUE(f.mem->dir_sharers(r).none());

    // Capacity abort: nine speculative private lines overflow one set.
    f.htm->begin(0);
    bool overflowed = false;
    for (unsigned k = 0; k < 9 && !overflowed; ++k) {
      overflowed = !f.htm->store(0, p + k * stride, k, 8, 6).ok;
      check();
    }
    EXPECT_TRUE(overflowed);
    EXPECT_EQ(f.htm->abort(0).cause, AbortCause::Capacity);
    check();
  }
}

TEST(HtmDeath, NestedBeginDies) {
  Fixture f;
  f.htm->begin(0);
  EXPECT_DEATH(f.htm->begin(0), "nested");
}

TEST(HtmDeath, PlainAccessInsideTransactionDies) {
  Fixture f;
  f.htm->begin(0);
  EXPECT_DEATH(f.htm->plain_load(0, f.x, 8), "inside a transaction");
}

TEST(HtmDeath, NontxAccessToOwnSpeculativeLineDies) {
  Fixture f;
  f.htm->begin(0);
  f.htm->store(0, f.x, 1, 8, 1);
  EXPECT_DEATH(f.htm->nontx_store(0, f.x, 2, 8), "speculatively");
}

}  // namespace
}  // namespace st::htm
