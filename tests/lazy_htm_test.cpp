// Lazy (commit-time) conflict detection — the paper's §8 future work.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace st::htm {
namespace {

/// The production machine under lazy detection, with two shared lines in
/// the setup arena (x = 10).
struct Fixture : testutil::MachineRig {
  Addr x, y;

  Fixture() : MachineRig(testutil::mem_config(4, /*lazy=*/true)) {
    x = shared_lines(1);
    y = shared_lines(1);
    heap.store(x, 10, 8);
  }
};

TEST(LazyHtm, WriterAndReaderCoexistUntilCommit) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 99, 8, 1);
  f.htm.begin(1);
  // Under eager detection this load would abort core 0; lazily it must not.
  EXPECT_EQ(f.htm.load(1, f.x, 8, 2).value, 10u);
  EXPECT_FALSE(f.htm.pending_abort(0));
  EXPECT_FALSE(f.htm.pending_abort(1));
  f.htm.abort(0);
  f.htm.abort(1);
}

TEST(LazyHtm, CommitterWinsAbortsOverlappingReader) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 99, 8, 1);
  f.htm.begin(1);
  f.htm.load(1, f.x, 8, 7);
  sim::Cycle publish = 0;
  EXPECT_TRUE(f.htm.commit(0, &publish));
  EXPECT_GT(publish, 0u);
  EXPECT_TRUE(f.htm.pending_abort(1));
  const auto info = f.htm.abort(1);
  EXPECT_EQ(info.cause, AbortCause::Conflict);
  EXPECT_EQ(info.conflict_line, sim::line_addr(f.x));
  EXPECT_EQ(info.true_first_pc, 7u);
  EXPECT_EQ(f.heap.load(f.x, 8), 99u);
}

TEST(LazyHtm, CommitterWinsAbortsOverlappingWriter) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 1, 8, 1);
  f.htm.begin(1);
  f.htm.store(1, f.x, 2, 8, 2);
  EXPECT_FALSE(f.htm.pending_abort(0));  // writers coexist pre-commit
  EXPECT_TRUE(f.htm.commit(1));
  EXPECT_TRUE(f.htm.pending_abort(0));
  f.htm.abort(0);
  EXPECT_EQ(f.heap.load(f.x, 8), 2u);
}

TEST(LazyHtm, DisjointTransactionsBothCommit) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 1, 8, 1);
  f.htm.begin(1);
  f.htm.store(1, f.y, 2, 8, 2);
  EXPECT_TRUE(f.htm.commit(0));
  EXPECT_TRUE(f.htm.commit(1));
  EXPECT_EQ(f.heap.load(f.x, 8), 1u);
  EXPECT_EQ(f.heap.load(f.y, 8), 2u);
  f.mem.check_invariants();
}

TEST(LazyHtm, ReadersStillSeeCommittedValuesOnly) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 42, 8, 1);
  // A plain reader on another core sees the committed value.
  EXPECT_EQ(f.htm.plain_load(1, f.x, 8).value, 10u);
  EXPECT_TRUE(f.htm.commit(0));
  EXPECT_EQ(f.htm.plain_load(1, f.x, 8).value, 42u);
}

TEST(LazyHtm, NontransactionalStoreStaysEager) {
  Fixture f;
  f.htm.begin(0);
  f.htm.load(0, f.x, 8, 1);
  // Nontransactional/plain stores act on committed state immediately and
  // must abort speculative readers even in lazy mode (the advisory-lock
  // and irrevocable paths depend on this).
  f.htm.plain_store(1, f.x, 5, 8);
  EXPECT_TRUE(f.htm.pending_abort(0));
  f.htm.abort(0);
}

TEST(LazyHtm, AbortedWriterLeavesNoTrace) {
  Fixture f;
  f.htm.begin(0);
  f.htm.store(0, f.x, 77, 8, 1);
  f.htm.abort(0);
  EXPECT_EQ(f.heap.load(f.x, 8), 10u);
  f.mem.check_invariants();
}

}  // namespace
}  // namespace st::htm

namespace st::workloads {
namespace {

TEST(LazyHtmIntegration, WorkloadsVerifyUnderLazyDetection) {
  for (const char* name : {"list-hi", "kmeans", "memcached"}) {
    for (const auto scheme :
         {runtime::Scheme::kBaseline, runtime::Scheme::kStaggered}) {
      RunOptions o;
      o.scheme = scheme;
      o.threads = 8;
      o.ops_scale = 0.05;
      o.lazy_htm = true;
      o.seed = 5;
      SCOPED_TRACE(name);
      const auto r = run_workload(name, o);
      EXPECT_EQ(r.totals.commits, r.total_ops);
    }
  }
}

TEST(LazyHtmIntegration, StaggeringAlsoCutsAbortsUnderLazyDetection) {
  // The paper argues the technique is "largely independent of other HTM
  // implementation details"; verify the abort reduction carries over.
  RunOptions base;
  base.threads = 8;
  base.ops_scale = 0.2;
  base.lazy_htm = true;
  base.seed = 5;
  RunOptions stag = base;
  stag.scheme = runtime::Scheme::kStaggered;
  const auto rb = run_workload("list-hi", base);
  const auto rs = run_workload("list-hi", stag);
  EXPECT_LT(rs.aborts_per_commit(), rb.aborts_per_commit());
}

}  // namespace
}  // namespace st::workloads
