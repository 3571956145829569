// ssca2: scalable graph-kernel fragment. Transactions are tiny (a degree
// bump plus an adjacency write) over a large vertex set, so conflicts are
// rare — the paper's low-contention control case that staggered
// transactions must not slow down.
#include <algorithm>

#include "workloads/all.hpp"
#include "ir/builder.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {

namespace {

class Ssca2 final : public Workload {
 public:
  const char* name() const override { return "ssca2"; }
  const char* expected_contention() const override { return "low"; }
  std::uint64_t ops_per_thread() const override { return 2000; }

  void build_ir(ir::Module& m) override {
    deg_t_ = m.add_type(ir::make_array("degarr", 8, kVertices, nullptr));
    adj_t_ = m.add_type(
        ir::make_array("adjarr", 8, kVertices * kMaxDeg, nullptr));

    // ab_add_edge(deg*, adj*, v, w): the kernel's 3-access transaction.
    {
      ir::FunctionBuilder b(m, "ab_add_edge",
                            {deg_t_, adj_t_, nullptr, nullptr});
      const ir::Reg deg = b.param(0), adj = b.param(1), v = b.param(2),
                    w = b.param(3);
      const ir::Reg one = b.const_i(1);
      const ir::Reg d = b.load_elem(deg, deg_t_, v);
      const ir::Reg dmask = b.and_(d, b.const_i(kMaxDeg - 1));
      b.store_elem(deg, deg_t_, v, b.add(d, one));
      const ir::Reg slot = b.add(b.mul(v, b.const_i(kMaxDeg)), dmask);
      b.store_elem(adj, adj_t_, slot, w);
      b.ret(one);
      m.add_atomic_block(b.function());
    }
    // ab_inc_weight(adj*, flat_idx): an even smaller bookkeeping txn.
    {
      ir::FunctionBuilder b(m, "ab_inc_weight", {adj_t_, nullptr});
      const ir::Reg adj = b.param(0), idx = b.param(1);
      const ir::Reg v = b.load_elem(adj, adj_t_, idx);
      b.store_elem(adj, adj_t_, idx, b.add(v, b.const_i(1)));
      b.ret(b.const_i(1));
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    deg_ = heap.alloc(arena, std::size_t{kVertices} * 8, sim::kLineBytes);
    adj_ = heap.alloc(arena, std::size_t{kVertices} * kMaxDeg * 8,
                      sim::kLineBytes);
    edges_added_.assign(kVertices, 0);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x55CAull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    Op op;
    if (rng.chance_pct(80)) {
      const std::uint64_t v = rng.next_below(kVertices);
      ++edges_added_[v];
      op.ab_id = 0;
      op.args = {deg_, adj_, v, rng.next_range(1, kVertices)};
    } else {
      op.ab_id = 1;
      op.args = {adj_, rng.next_below(kVertices * kMaxDeg)};
    }
    op.think = 400;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    // Degree counters are per-vertex sums of committed add_edge txns
    // (replay guard: only the issuing instance counted them).
    if (std::all_of(edges_added_.begin(), edges_added_.end(),
                    [](std::uint64_t n) { return n == 0; }))
      return "";
    for (unsigned v = 0; v < kVertices; ++v)
      if (sys.heap().load(deg_ + std::size_t{v} * 8, 8) != edges_added_[v])
        return "vertex " + std::to_string(v) + " lost a degree increment";
    return "";
  }

 private:
  static constexpr unsigned kVertices = 4096;
  static constexpr unsigned kMaxDeg = 8;

  const ir::StructType* deg_t_ = nullptr;
  const ir::StructType* adj_t_ = nullptr;
  sim::Addr deg_ = 0, adj_ = 0;
  std::vector<std::uint64_t> edges_added_;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_ssca2() { return std::make_unique<Ssca2>(); }

}  // namespace st::workloads
