// labyrinth: Lee-style maze routing. Each worker routes a path privately
// (native "think" work), then runs one long transaction that validates the
// path's grid cells are free and claims them. Overlapping paths conflict on
// varying cell addresses with a recurring PC — coarse-grain locking
// territory.
#include "workloads/all.hpp"
#include "ir/builder.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {

namespace {

class Labyrinth final : public Workload {
 public:
  const char* name() const override { return "labyrinth"; }
  const char* expected_contention() const override { return "high"; }
  std::uint64_t ops_per_thread() const override { return 250; }

  void build_ir(ir::Module& m) override {
    grid_t_ = m.add_type(ir::make_array("grid", 8, kCells, nullptr));
    path_t_ = m.add_type(ir::make_array("path", 8, kMaxPath, nullptr));

    // ab_claim(grid*, path*, len, owner) -> bool: validate then claim.
    ir::FunctionBuilder b(m, "ab_claim",
                          {grid_t_, path_t_, nullptr, nullptr});
    const ir::Reg grid = b.param(0), path = b.param(1), len = b.param(2),
                  owner = b.param(3);
    const ir::Reg zero = b.const_i(0), one = b.const_i(1);
    const ir::Reg i = b.var(zero);
    auto* check = b.new_block("check");
    auto* check_body = b.new_block("check.body");
    auto* check_next = b.new_block("check.next");
    auto* fail = b.new_block("fail");
    auto* claim = b.new_block("claim");
    b.br(check);
    b.set_insert(check);
    b.cond_br(b.cmp_slt(i, len), check_body, claim);
    b.set_insert(check_body);
    const ir::Reg cell = b.load_elem(path, path_t_, i);
    const ir::Reg g = b.load_elem(grid, grid_t_, cell);
    b.cond_br(b.cmp_ne(g, zero), fail, check_next);
    b.set_insert(check_next);
    b.assign(i, b.add(i, one));
    b.br(check);
    b.set_insert(fail);
    b.ret(zero);
    b.set_insert(claim);
    const ir::Reg j = b.var(zero);
    b.while_([&] { return b.cmp_slt(j, len); },
             [&] {
               const ir::Reg c2 = b.load_elem(path, path_t_, j);
               b.store_elem(grid, grid_t_, c2, owner);
               b.assign(j, b.add(j, one));
             });
    b.ret(one);
    m.add_atomic_block(b.function());

    // ab_release(grid*, path*, len): tear the routed path back out (the
    // benchmark runs in steady state; without releases the grid saturates
    // and every claim degenerates into a one-cell read).
    {
      ir::FunctionBuilder b2(m, "ab_release", {grid_t_, path_t_, nullptr});
      const ir::Reg grid2 = b2.param(0), path2 = b2.param(1),
                    len2 = b2.param(2);
      const ir::Reg zero2 = b2.const_i(0), one2 = b2.const_i(1);
      const ir::Reg k = b2.var(zero2);
      b2.while_([&] { return b2.cmp_slt(k, len2); },
                [&] {
                  const ir::Reg c3 = b2.load_elem(path2, path_t_, k);
                  b2.store_elem(grid2, grid_t_, c3, zero2);
                  b2.assign(k, b2.add(k, one2));
                });
      b2.ret(one2);
      m.add_atomic_block(b2.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    grid_ = heap.alloc(heap.setup_arena(), std::size_t{kCells} * 8,
                       sim::kLineBytes);
    paths_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      paths_.push_back(heap.alloc(t, std::size_t{kMaxPath} * 8,
                                  sim::kLineBytes));
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x1AB1ull * (t + 3)));
    release_pending_.assign(sys.config().cores, 0);
    last_len_.assign(sys.config().cores, 0);
    last_was_claim_.assign(sys.config().cores, false);
  }

  Op next_op(runtime::TxSystem& sys, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    if (release_pending_[thread] != 0) {
      // The previous claim succeeded: route traffic over it, then free it.
      Op op;
      op.ab_id = 1;
      op.args = {grid_, paths_[thread], release_pending_[thread]};
      op.think = 300;
      release_pending_[thread] = 0;
      return op;
    }
    // Route privately: an L-shaped path between random endpoints (the
    // router itself is the native think work).
    const unsigned x0 = static_cast<unsigned>(rng.next_below(kDim));
    const unsigned y0 = static_cast<unsigned>(rng.next_below(kDim));
    const unsigned x1 = static_cast<unsigned>(rng.next_below(kDim));
    const unsigned y1 = static_cast<unsigned>(rng.next_below(kDim));
    std::vector<std::uint64_t> cells;
    unsigned x = x0, y = y0;
    cells.push_back(y * kDim + x);
    while (x != x1 && cells.size() < kMaxPath) {
      x += x < x1 ? 1 : -1;
      cells.push_back(y * kDim + x);
    }
    while (y != y1 && cells.size() < kMaxPath) {
      y += y < y1 ? 1 : -1;
      cells.push_back(y * kDim + x);
    }
    sim::Heap& heap = sys.heap();
    for (std::size_t i = 0; i < cells.size(); ++i)
      heap.store(paths_[thread] + i * 8, cells[i], 8);

    Op op;
    op.ab_id = 0;
    op.args = {grid_, paths_[thread], cells.size(),
               static_cast<std::uint64_t>(thread + 1)};
    op.think = 800;  // the private routing pass dominates non-txn time
    last_len_[thread] = cells.size();
    last_was_claim_[thread] = true;
    return op;
  }

  void on_result(unsigned thread, std::uint64_t, std::uint64_t r) override {
    if (last_was_claim_[thread] && r != 0)
      release_pending_[thread] = last_len_[thread];
    last_was_claim_[thread] = false;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    const unsigned cores = sys.config().cores;
    for (unsigned c = 0; c < kCells; ++c) {
      const std::uint64_t v = sys.heap().load(grid_ + std::size_t{c} * 8, 8);
      if (v > cores)
        return "grid cell " + std::to_string(c) + " claimed by unknown owner " +
               std::to_string(v);
    }
    return "";
  }

 private:
  static constexpr unsigned kDim = 24;
  static constexpr unsigned kCells = kDim * kDim;
  static constexpr unsigned kMaxPath = 96;

  const ir::StructType* grid_t_ = nullptr;
  const ir::StructType* path_t_ = nullptr;
  sim::Addr grid_ = 0;
  std::vector<sim::Addr> paths_;
  std::vector<std::uint64_t> release_pending_;
  std::vector<std::uint64_t> last_len_;
  std::vector<bool> last_was_claim_;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_labyrinth() {
  return std::make_unique<Labyrinth>();
}

}  // namespace st::workloads
