// src/check: schedule perturbation, serializability oracle, failure
// reducer, and the non-aborting dslib validators behind
// Workload::check_invariants.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/oracle.hpp"
#include "check/reducer.hpp"
#include "check/scheduler.hpp"
#include "ir/builder.hpp"
#include "workloads/dslib/bst.hpp"
#include "workloads/dslib/hashtable.hpp"
#include "workloads/dslib/pqueue.hpp"
#include "workloads/harness.hpp"

namespace st::check {
namespace {

workloads::RunOptions small_opts(unsigned threads = 8) {
  workloads::RunOptions o;
  o.threads = threads;
  o.ops_scale = 0.05;
  return o;
}

TEST(Perturb, SameSeedBitReproducibleDifferentSeedDiverges) {
  for (const SchedMode mode : {SchedMode::kPct, SchedMode::kJitter}) {
    workloads::RunOptions o = small_opts();
    SchedConfig s;
    s.mode = mode;
    s.seed = 5;
    o.sched = s;
    const auto a = workloads::run_workload("list-hi", o);
    const auto b = workloads::run_workload("list-hi", o);
    EXPECT_EQ(a.cycles, b.cycles) << sched_mode_name(mode);
    EXPECT_EQ(a.totals.commits, b.totals.commits);
    EXPECT_EQ(a.totals.total_aborts(), b.totals.total_aborts());
    s.seed = 6;
    o.sched = s;
    const auto c = workloads::run_workload("list-hi", o);
    EXPECT_NE(a.cycles, c.cycles) << sched_mode_name(mode);
  }
}

TEST(Perturb, DescribeNamesEveryKnob) {
  SchedConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.describe(), "off");
  EXPECT_EQ(make_perturb(cfg), nullptr);
  cfg.mode = SchedMode::kJitter;
  cfg.seed = 7;
  cfg.jitter = 32;
  cfg.period = 4;
  EXPECT_EQ(cfg.describe(), "jitter seed=7 amp=32 period=4");
  cfg.window_lo = 100;
  cfg.window_hi = 200;
  EXPECT_EQ(cfg.describe(), "jitter seed=7 amp=32 period=4 window=100:200");
  cfg.mode = SchedMode::kPct;
  cfg.depth = 9;
  cfg.skew = 512;
  EXPECT_EQ(cfg.describe(), "pct seed=7 depth=9 skew=512");
}

TEST(Checked, RecordsCommitLogDigestAndInvariants) {
  workloads::RunOptions o = small_opts();
  o.checked = true;
  SchedConfig s;
  s.mode = SchedMode::kJitter;
  s.seed = 3;
  o.sched = s;
  const auto r = workloads::run_workload("list-lo", o);
  EXPECT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
  EXPECT_NE(r.state_digest, 0u);
  ASSERT_NE(r.commit_log, nullptr);
  EXPECT_EQ(r.commit_log->size(), r.totals.commits);
  sim::Cycle prev = 0;
  for (const auto& rec : *r.commit_log) {
    EXPECT_GE(rec.cycle, prev);  // append order is commit order
    prev = rec.cycle;
    EXPECT_LT(rec.ab_id, 3);
    EXPECT_LT(rec.core, o.threads);
    EXPECT_EQ(rec.args.size(), 2u);
  }
}

TEST(Oracle, AcceptsCleanPerturbedRuns) {
  const workloads::RunOptions base = small_opts();
  for (const SchedMode mode : {SchedMode::kJitter, SchedMode::kPct}) {
    SchedConfig s;
    s.mode = mode;
    s.seed = 1;
    const Verdict v = check_once("list-hi", base, s);
    EXPECT_TRUE(v.ok) << sched_mode_name(mode) << ": [" << v.stage << "] "
                      << v.failure;
    EXPECT_GT(v.commits, 0u);
  }
}

TEST(Oracle, FlagsTamperedResultAndDigest) {
  workloads::RunOptions o = small_opts();
  o.checked = true;
  auto r = workloads::run_workload("list-hi", o);
  ASSERT_NE(r.commit_log, nullptr);
  ASSERT_TRUE(r.invariant_failure.empty());
  ASSERT_TRUE(replay_serial("list-hi", small_opts(), r).ok);

  // A single flipped return value is an unserializable history.
  auto tampered = std::make_shared<runtime::CommitLog>(*r.commit_log);
  (*tampered)[tampered->size() / 2].result ^= 1;
  auto bad = r;
  bad.commit_log = tampered;
  const OracleReport rep = replay_serial("list-hi", small_opts(), bad);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.divergence.find("recorded result"), std::string::npos)
      << rep.divergence;

  // A correct log but a wrong final state digest is caught after replay.
  auto bad_digest = r;
  bad_digest.state_digest ^= 0x1234;
  const OracleReport rep2 = replay_serial("list-hi", small_opts(), bad_digest);
  EXPECT_FALSE(rep2.ok);
  EXPECT_NE(rep2.divergence.find("digest mismatch"), std::string::npos)
      << rep2.divergence;
}

// The acceptance gate for the whole subsystem: compile out the lazy glock
// subscription (a real published-HTM-runtime bug class) and the checker
// must notice within 50 perturbation seeds. With a retry cap of 1 most
// contended transactions fall back to the irrevocable path, whose plain
// loads/stores race against unsubscribed speculative commits.
TEST(Oracle, DetectsCompiledOutSubscriptionWithin50Seeds) {
  workloads::RunOptions base = small_opts(16);
  base.ops_scale = 0.1;
  base.max_retries = 1;
  base.unsafe_skip_subscription = true;
  SchedConfig s;
  s.mode = SchedMode::kJitter;
  unsigned failed_at = 0;
  for (unsigned seed = 1; seed <= 50; ++seed) {
    s.seed = seed;
    const Verdict v = check_once("list-hi", base, s);
    if (!v.ok) {
      failed_at = seed;
      EXPECT_FALSE(v.failure.empty());
      break;
    }
  }
  ASSERT_NE(failed_at, 0u) << "broken subscription survived 50 seeds";
}

TEST(Reducer, ConvergesOnSyntheticFailure) {
  // Synthetic bug: reproduces iff injections of amplitude >= 16 at period
  // <= 8 can land on cycle 10000.
  const auto fails = [](const SchedConfig& c) {
    return c.mode == SchedMode::kJitter && c.jitter >= 16 && c.period <= 8 &&
           c.window_lo <= 10'000 && c.window_hi > 10'000;
  };
  SchedConfig f;
  f.mode = SchedMode::kJitter;
  f.seed = 1;
  f.jitter = 64;
  f.period = 8;
  const ReduceResult red = reduce(f, 1'000'000, fails);
  EXPECT_TRUE(red.reproduced);
  EXPECT_LE(red.probes, 48u);
  EXPECT_TRUE(fails(red.minimal));
  EXPECT_LE(red.minimal.window_hi - red.minimal.window_lo, 64u);
  EXPECT_LE(red.minimal.window_lo, 10'000u);
  EXPECT_GT(red.minimal.window_hi, 10'000u);
  EXPECT_EQ(red.minimal.jitter, 16u);
  EXPECT_FALSE(red.history.empty());
}

TEST(Reducer, ReportsNonReproducingInput) {
  SchedConfig f;
  f.mode = SchedMode::kJitter;
  const ReduceResult red =
      reduce(f, 1'000'000, [](const SchedConfig&) { return false; });
  EXPECT_FALSE(red.reproduced);
  EXPECT_EQ(red.probes, 1u);
  EXPECT_EQ(red.minimal.jitter, f.jitter);  // untouched
}

TEST(Reducer, PctShrinksDepthAndSkew) {
  const auto fails = [](const SchedConfig& c) {
    return c.mode == SchedMode::kPct && c.depth >= 2 && c.skew >= 256;
  };
  SchedConfig f;
  f.mode = SchedMode::kPct;
  f.depth = 64;
  f.skew = 4096;
  const ReduceResult red = reduce(f, 0, fails);
  EXPECT_TRUE(red.reproduced);
  EXPECT_EQ(red.minimal.depth, 2u);
  EXPECT_EQ(red.minimal.skew, 256u);
}

// ------------------- non-aborting dslib validators ------------------------

unsigned field_off(const ir::StructType* t, const char* name) {
  return t->fields[t->field_index(name)].offset;
}

TEST(Validators, ListReportsDisorderWildPointerAndCycle) {
  namespace ds = workloads::dslib;
  ir::Module m;
  const ds::ListLib lib = ds::build_list_lib(m);
  sim::Heap heap(1, 1 << 20);
  const unsigned arena = heap.setup_arena();
  const sim::Addr list = ds::host_list_new(heap, arena, lib);
  for (std::int64_t k = 1; k <= 5; ++k)
    ds::host_list_push_sorted(heap, arena, lib, list, k, 10 * k);
  EXPECT_EQ(ds::host_list_validate(heap, lib, list, true), "");

  const unsigned key_off = field_off(lib.node_t, "key");
  const unsigned next_off = field_off(lib.node_t, "next");
  const sim::Addr n0 = heap.load(list + field_off(lib.list_t, "head"), 8);
  const sim::Addr n1 = heap.load(n0 + next_off, 8);

  heap.store(n0 + key_off, 99, 8);  // 99 > next key: disorder
  EXPECT_NE(ds::host_list_validate(heap, lib, list, true).find(
                "order violated"),
            std::string::npos);
  EXPECT_EQ(ds::host_list_validate(heap, lib, list, false), "")
      << "unsorted check must ignore key order";
  heap.store(n0 + key_off, 1, 8);  // restore

  const sim::Addr n2 = heap.load(n1 + next_off, 8);
  heap.store(n1 + next_off, 0xDEAD'BEE8, 8);  // aligned but unmapped
  EXPECT_NE(ds::host_list_validate(heap, lib, list, true).find("wild"),
            std::string::npos);
  heap.store(n1 + next_off, n0, 8);  // n1 -> n0: cycle
  // With sorting required the repeated keys trip the order check first;
  // with it off the bounded walk reports the cycle itself.
  EXPECT_NE(ds::host_list_validate(heap, lib, list, true).find(
                "order violated"),
            std::string::npos);
  EXPECT_NE(ds::host_list_validate(heap, lib, list, false, nullptr, 64)
                .find("cycle"),
            std::string::npos);
  heap.store(n1 + next_off, n2, 8);  // restore
  EXPECT_EQ(ds::host_list_validate(heap, lib, list, true), "");
}

TEST(Validators, BstReportsOrderViolationWildPointerAndSum) {
  namespace ds = workloads::dslib;
  ir::Module m;
  const ds::BstLib lib = ds::build_bst_lib(m);
  sim::Heap heap(1, 1 << 20);
  const unsigned arena = heap.setup_arena();
  const sim::Addr tree = ds::host_bst_new(heap, arena, lib);
  for (const std::int64_t k : {8, 4, 12, 2, 6})
    ds::host_bst_insert(heap, arena, lib, tree, k, k);
  std::int64_t sum = 0;
  EXPECT_EQ(ds::host_bst_validate(heap, lib, tree, &sum), "");
  EXPECT_EQ(sum, 8 + 4 + 12 + 2 + 6);
  EXPECT_EQ(ds::host_bst_digest(heap, lib, tree, 1),
            ds::host_bst_digest(heap, lib, tree, 1));
  EXPECT_NE(ds::host_bst_digest(heap, lib, tree, 1),
            ds::host_bst_digest(heap, lib, tree, 2));

  const sim::Addr root = heap.load(tree + field_off(lib.tree_t, "root"), 8);
  const unsigned left_off = field_off(lib.tnode_t, "left");
  const sim::Addr l = heap.load(root + left_off, 8);
  heap.store(root + left_off, root, 8);  // self-cycle: repeats key 8 > bound
  EXPECT_NE(ds::host_bst_validate(heap, lib, tree), "");
  heap.store(root + left_off, 0x3, 8);  // unaligned wild pointer
  EXPECT_NE(ds::host_bst_validate(heap, lib, tree).find("wild"),
            std::string::npos);
  heap.store(root + left_off, l, 8);  // restore
  EXPECT_EQ(ds::host_bst_validate(heap, lib, tree), "");
}

TEST(Validators, HashTableReportsBucketCorruption) {
  namespace ds = workloads::dslib;
  ir::Module m;
  const ds::HashLib lib = ds::build_hash_lib(m, 4);
  sim::Heap heap(1, 1 << 20);
  const unsigned arena = heap.setup_arena();
  const sim::Addr ht = ds::host_ht_new(heap, arena, lib, 4);
  for (std::int64_t k = 0; k < 8; ++k)
    ds::host_ht_insert(heap, arena, lib, ht, k, k + 100);
  EXPECT_EQ(ds::host_ht_validate(heap, lib, ht), "");

  // Key 3 pushed into bucket 0 (3 % 4 != 0) is a placement violation.
  const sim::Addr barr = heap.load(ht + lib.htab_t->field(1).offset, 8);
  const sim::Addr bucket0 = heap.load(barr, 8);
  ds::host_list_push_sorted(heap, arena, lib.list, bucket0, 3, 3);
  EXPECT_NE(ds::host_ht_validate(heap, lib, ht).find("hashes to"),
            std::string::npos);
}

TEST(Validators, PqReportsWildBucketAndCountsEntries) {
  namespace ds = workloads::dslib;
  ir::Module m;
  const ds::PqLib lib = ds::build_pq_lib(m, 4);
  sim::Heap heap(1, 1 << 20);
  const unsigned arena = heap.setup_arena();
  const sim::Addr pq = ds::host_pq_new(heap, arena, lib, 4, 4);
  for (std::int64_t p = 0; p < 6; ++p)
    ds::host_pq_push(heap, arena, lib, pq, 16 * p, p + 1);
  std::size_t size = 0;
  EXPECT_EQ(ds::host_pq_validate(heap, lib, pq, &size), "");
  EXPECT_EQ(size, 6u);

  const sim::Addr barr = heap.load(pq + lib.pq_t->field(2).offset, 8);
  const sim::Addr bucket2 = heap.load(barr + 2 * 8, 8);
  const unsigned head_off = field_off(lib.list.list_t, "head");
  const sim::Addr head = heap.load(bucket2 + head_off, 8);
  heap.store(bucket2 + head_off, 0xDEAD'BEE8, 8);
  EXPECT_NE(ds::host_pq_validate(heap, lib, pq).find("bucket 2: node 0: wild"),
            std::string::npos);
  heap.store(bucket2 + head_off, head, 8);  // restore
  heap.store(barr + 8, 0x3, 8);             // wild bucket list header
  EXPECT_NE(ds::host_pq_validate(heap, lib, pq).find("bucket 1: list header"),
            std::string::npos);
}

// End-to-end invariant-hook plumbing: a workload whose schedule corrupts
// its own list mid-run must surface the violation through
// RunResult::invariant_failure instead of aborting through verify().
class SelfCorruptingList final : public workloads::Workload {
 public:
  const char* name() const override { return "self-corrupting-list"; }
  std::uint64_t ops_per_thread() const override { return 8; }

  void build_ir(ir::Module& m) override {
    lib_ = workloads::dslib::build_list_lib(m);
    ir::FunctionBuilder b(m, "ab_push", {lib_.list_t, nullptr});
    b.ret(b.call(lib_.push_front, {b.param(0), b.param(1), b.param(1)}));
    m.add_atomic_block(b.function());
  }

  void setup(runtime::TxSystem& sys) override {
    list_ = workloads::dslib::host_list_new(sys.heap(),
                                            sys.heap().setup_arena(), lib_);
  }

  Op next_op(runtime::TxSystem& sys, unsigned, std::uint64_t idx) override {
    if (idx == 4) {  // host-side corruption between transactions
      const sim::Addr head =
          sys.heap().load(list_ + field_off(lib_.list_t, "head"), 8);
      sys.heap().store(head + field_off(lib_.node_t, "next"), 0xDEAD'BEE8, 8);
    }
    Op op;
    op.ab_id = 0;
    op.args = {list_, idx + 1};
    op.think = 10;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    return workloads::dslib::host_list_validate(sys.heap(), lib_, list_,
                                                /*require_sorted=*/false);
  }

 private:
  workloads::dslib::ListLib lib_;
  sim::Addr list_ = 0;
};

TEST(Checked, InvariantHookFiresOnCorruptedList) {
  SelfCorruptingList wl;
  workloads::RunOptions o = small_opts(1);
  o.ops_scale = 1.0;
  o.checked = true;
  const auto r = workloads::run_workload(wl, o);
  EXPECT_NE(r.invariant_failure.find("wild"), std::string::npos)
      << "got: " << r.invariant_failure;
  EXPECT_EQ(r.state_digest, 0u);  // digest skipped once invariants fail
}

}  // namespace
}  // namespace st::check
