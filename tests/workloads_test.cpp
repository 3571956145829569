// Per-workload behaviour: registry completeness, metric sanity, contention
// classes, and invariant checks under concurrency (each default
// run_workload call already aborts through the workload's verify()).
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "check/oracle.hpp"
#include "workloads/dslib/hashtable.hpp"
#include "workloads/dslib/pqueue.hpp"
#include "workloads/harness.hpp"

namespace st::workloads {
namespace {

RunOptions opts(runtime::Scheme s, unsigned threads, double scale) {
  RunOptions o;
  o.scheme = s;
  o.threads = threads;
  o.ops_scale = scale;
  o.seed = 9;
  return o;
}

TEST(Registry, HasAllTenPaperBenchmarks) {
  const auto& reg = workload_registry();
  ASSERT_EQ(reg.size(), 10u);
  for (const char* name :
       {"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation",
        "list-lo", "list-hi", "tsp", "memcached"}) {
    EXPECT_NE(make_workload(name), nullptr) << name;
  }
  EXPECT_EQ(make_workload("nope"), nullptr);
}

class PerWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(PerWorkload, SingleThreadRunIsAbortFreeAndVerifies) {
  const RunResult r =
      run_workload(GetParam(), opts(runtime::Scheme::kBaseline, 1, 0.1));
  EXPECT_EQ(r.totals.commits, r.total_ops);
  EXPECT_EQ(r.totals.aborts_conflict, 0u);
  EXPECT_EQ(r.totals.irrevocable_entries, 0u);
}

TEST_P(PerWorkload, ConcurrentStaggeredRunVerifiesInvariants) {
  // run_workload aborts through verify() on any invariant violation.
  const RunResult r =
      run_workload(GetParam(), opts(runtime::Scheme::kStaggered, 8, 0.05));
  EXPECT_EQ(r.totals.commits, r.total_ops);
}

TEST_P(PerWorkload, CheckedRunAndSerialReplayHoldInvariants) {
  RunOptions o = opts(runtime::Scheme::kStaggered, 8, 0.05);
  o.checked = true;
  const RunResult r = run_workload(GetParam(), o);
  EXPECT_EQ(r.invariant_failure, "");
  const check::OracleReport rep = check::replay_serial(GetParam(), o, r);
  EXPECT_EQ(rep.divergence.find("replayed state violates invariants"),
            std::string::npos)
      << rep.divergence;
  // Labyrinth's replay can stop earlier, at a result mismatch: its claims
  // read a path buffer that next_op() fills with host stores, which the
  // commit log does not carry (ROADMAP item 1).
  if (std::string(GetParam()) != "labyrinth") {
    EXPECT_TRUE(rep.ok) << rep.divergence;
  }
}

TEST_P(PerWorkload, MetricsAreWellFormed) {
  const RunResult r =
      run_workload(GetParam(), opts(runtime::Scheme::kStaggered, 4, 0.05));
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.throughput(), 0.0);
  EXPECT_GE(r.pct_tm(), 0.0);
  EXPECT_LE(r.pct_tm(), 100.0);
  EXPECT_GE(r.pct_irrevocable(), 0.0);
  EXPECT_GE(r.anchor_accuracy(), 0.0);
  EXPECT_LE(r.anchor_accuracy(), 1.0);
  EXPECT_GT(r.instrs_per_txn(), 0.0);
  EXPECT_GT(r.atomic_blocks, 0u);
  EXPECT_GT(r.static_loads_stores, 0u);
  EXPECT_GE(r.static_loads_stores, r.static_anchors);
}

INSTANTIATE_TEST_SUITE_P(
    All, PerWorkload,
    ::testing::Values("genome", "intruder", "kmeans", "labyrinth", "ssca2",
                      "vacation", "list-lo", "list-hi", "tsp", "memcached"));

// Delegates to a registry workload, records the ops it issues, and lets a
// test corrupt the final heap just before the invariant check runs.
class Corrupted final : public Workload {
 public:
  using Corrupt =
      std::function<void(sim::Heap&, ir::Module&, const std::vector<Op>&)>;
  Corrupted(const char* wl, Corrupt corrupt)
      : inner_(make_workload(wl)), corrupt_(std::move(corrupt)) {}

  const char* name() const override { return inner_->name(); }
  std::uint64_t ops_per_thread() const override {
    return inner_->ops_per_thread();
  }
  void build_ir(ir::Module& m) override {
    m_ = &m;
    inner_->build_ir(m);
  }
  void setup(runtime::TxSystem& sys) override { inner_->setup(sys); }
  Op next_op(runtime::TxSystem& sys, unsigned t, std::uint64_t i) override {
    ops_.push_back(inner_->next_op(sys, t, i));
    return ops_.back();
  }
  void on_result(unsigned t, std::uint64_t i, std::uint64_t r) override {
    inner_->on_result(t, i, r);
  }
  std::string check_invariants(runtime::TxSystem& sys) override {
    corrupt_(sys.heap(), *m_, ops_);
    return inner_->check_invariants(sys);
  }

 private:
  std::unique_ptr<Workload> inner_;
  Corrupt corrupt_;
  ir::Module* m_ = nullptr;
  std::vector<Op> ops_;
};

/// First issued op running atomic block `ab`.
const Workload::Op& first_op(const std::vector<Workload::Op>& ops,
                             unsigned ab) {
  for (const Workload::Op& op : ops)
    if (op.ab_id == ab) return op;
  ADD_FAILURE() << "no op of atomic block " << ab;
  return ops.front();
}

void bump(sim::Heap& heap, sim::Addr a) { heap.store(a, heap.load(a, 8) + 1, 8); }

struct Corruption {
  const char* names;  // substring check_invariants must report
  Corrupted::Corrupt corrupt;
};

/// One heap word to corrupt per workload whose check was ported from an
/// aborting verify().
const Corruption& corruption_for(const std::string& wl) {
  static const std::map<std::string, Corruption> cases = {
      {"ssca2",
       {"degree increment",
        [](sim::Heap& h, ir::Module&, const auto& ops) {
          const auto& a = first_op(ops, 0).args;  // deg, adj, v, w
          bump(h, a[0] + a[2] * 8);
        }}},
      {"kmeans",
       {"count update",
        [](sim::Heap& h, ir::Module&, const auto& ops) {
          const auto& a = first_op(ops, 0).args;  // .., counts, .., cluster
          bump(h, a[1] + a[3] * 64);
        }}},
      {"labyrinth",
       {"unknown owner",
        [](sim::Heap& h, ir::Module&, const auto& ops) {
          h.store(first_op(ops, 0).args[0], 999, 8);  // grid cell 0
        }}},
      {"memcached",
       {"hit/miss",
        [](sim::Heap& h, ir::Module&, const auto& ops) {
          bump(h, first_op(ops, 0).args[1]);  // stats.cmd_get
        }}},
      {"genome",
       {"value corrupted",
        [](sim::Heap& h, ir::Module& m, const auto& ops) {
          // Bump the value of some bucket's head segment.
          const auto lib = dslib::build_hash_lib(m, 1024);
          const unsigned head_off = lib.list.list_t->field(0).offset;
          const sim::Addr ht = first_op(ops, 0).args[0];
          for (sim::Addr b = h.load(ht + lib.htab_t->field(1).offset, 8);;
               b += 8) {
            const sim::Addr head = h.load(h.load(b, 8) + head_off, 8);
            if (head == 0) continue;
            bump(h, head + lib.list.node_t->field(1).offset);
            return;
          }
        }}},
      {"tsp",
       {"wild pointer",
        [](sim::Heap& h, ir::Module& m, const auto& ops) {
          // Point bucket 0's list head into unmapped space.
          const auto lib = dslib::build_pq_lib(m, 64);
          const sim::Addr pq = first_op(ops, 0).args[0];
          const sim::Addr barr = h.load(pq + lib.pq_t->field(2).offset, 8);
          h.store(h.load(barr, 8) + lib.list.list_t->field(0).offset,
                  0xDEAD'BEE8, 8);
        }}},
  };
  return cases.at(wl);
}

class InvariantCatches : public ::testing::TestWithParam<const char*> {};

TEST_P(InvariantCatches, CheckNamesCorruptionAndVerifyDies) {
  const Corruption& c = corruption_for(GetParam());
  RunOptions o = opts(runtime::Scheme::kStaggered, 4, 0.05);
  o.checked = true;
  Corrupted checked(GetParam(), c.corrupt);
  const std::string failure = run_workload(checked, o).invariant_failure;
  EXPECT_NE(failure.find(c.names), std::string::npos) << failure;
  o.checked = false;
  EXPECT_DEATH(
      {
        Corrupted wl(GetParam(), c.corrupt);
        run_workload(wl, o);
      },
      c.names);
}

INSTANTIATE_TEST_SUITE_P(Ported, InvariantCatches,
                         ::testing::Values("genome", "kmeans", "labyrinth",
                                           "ssca2", "tsp", "memcached"));

TEST(Workloads, ListHiContendsMoreThanListLo) {
  const auto lo =
      run_workload("list-lo", opts(runtime::Scheme::kBaseline, 8, 0.2));
  const auto hi =
      run_workload("list-hi", opts(runtime::Scheme::kBaseline, 8, 0.2));
  EXPECT_GT(hi.aborts_per_commit(), lo.aborts_per_commit());
}

TEST(Workloads, Ssca2IsLowContention) {
  const auto r =
      run_workload("ssca2", opts(runtime::Scheme::kBaseline, 8, 0.2));
  EXPECT_LT(r.aborts_per_commit(), 0.2);
}

TEST(Workloads, AnchorAccuracyIsHighWithHardwarePcTags) {
  const auto r =
      run_workload("list-hi", opts(runtime::Scheme::kStaggered, 8, 0.3));
  // Paper Table 3: all benchmarks identify the right anchor >95% of aborts.
  EXPECT_GT(r.anchor_accuracy(), 0.95);
}

TEST(Workloads, InstrumentationSelectsMinorityOfAccesses) {
  unsigned anchors = 0, accesses = 0;
  for (const auto& [name, factory] : workload_registry()) {
    (void)factory;
    const auto r =
        run_workload(name, opts(runtime::Scheme::kStaggered, 1, 0.02));
    // Individual tiny kernels (labyrinth) may anchor everything; across the
    // suite, anchors must be a clear minority of analyzed accesses (paper
    // Table 3 averages 13%).
    EXPECT_LE(r.static_anchors, r.static_loads_stores) << name;
    EXPECT_GT(r.static_anchors, 0u) << name;
    anchors += r.static_anchors;
    accesses += r.static_loads_stores;
  }
  EXPECT_LT(anchors, accesses / 2);
}

TEST(Workloads, SeedChangesScheduleButNotInvariants) {
  RunOptions a = opts(runtime::Scheme::kStaggered, 4, 0.05);
  RunOptions b = a;
  b.seed = 1234;
  const auto ra = run_workload("memcached", a);
  const auto rb = run_workload("memcached", b);
  EXPECT_EQ(ra.totals.commits, rb.totals.commits);  // same op counts
  EXPECT_NE(ra.cycles, rb.cycles);  // different interleavings
}

TEST(Workloads, ThreadScalingIncreasesThroughputOnLowContention) {
  const auto t1 =
      run_workload("ssca2", opts(runtime::Scheme::kBaseline, 1, 0.2));
  const auto t8 =
      run_workload("ssca2", opts(runtime::Scheme::kBaseline, 8, 0.2));
  EXPECT_GT(t8.throughput(), 3.0 * t1.throughput());
}

}  // namespace
}  // namespace st::workloads
