// tsp: branch-and-bound traveling-salesman solver skeleton. Candidate tasks
// live in a shared bucketed priority queue (DESIGN.md: B+-tree substitute);
// workers pop the cheapest task, compute bounds non-transactionally, and
// push child tasks. The head of the queue (minimum bucket) is the most
// contended object (paper §6.2).
#include "workloads/all.hpp"
#include "workloads/dslib/pqueue.hpp"

namespace st::workloads {

namespace {

class Tsp final : public Workload {
 public:
  const char* name() const override { return "tsp"; }
  const char* expected_contention() const override { return "med"; }
  std::uint64_t ops_per_thread() const override { return 1200; }

  void build_ir(ir::Module& m) override {
    lib_ = dslib::build_pq_lib(m, kBuckets);
    {
      ir::FunctionBuilder b(m, "ab_pop_task", {lib_.pq_t});
      b.ret(b.call(lib_.pop, {b.param(0)}));
      m.add_atomic_block(b.function());
    }
    {
      ir::FunctionBuilder b(m, "ab_push_task", {lib_.pq_t, nullptr, nullptr});
      b.ret(b.call(lib_.push, {b.param(0), b.param(1), b.param(2)}));
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    pq_ = dslib::host_pq_new(heap, arena, lib_, kBuckets, kShift);
    Xoshiro256ss seed_rng(mix64(sys.config().seed) ^ 0x7501ull);
    // Seed the queue generously so pops rarely go empty.
    const std::uint64_t backlog =
        ops_per_thread() * sys.config().cores / 2 + 256;
    std::vector<std::pair<std::int64_t, std::int64_t>> tasks(backlog);
    for (std::uint64_t i = 0; i < backlog; ++i)
      tasks[i] = {static_cast<std::int64_t>(draw_prio(seed_rng)),
                  static_cast<std::int64_t>(i + 1)};
    dslib::host_pq_push_all(heap, arena, lib_, pq_, tasks);
    pushes_ = 0;
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x7511ull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread,
             std::uint64_t op_index) override {
    auto& rng = rngs_[thread];
    Op op;
    if (op_index % 2 == 0) {
      // Pop the cheapest task; the bound computation is native work.
      op.ab_id = 0;
      op.args = {pq_};
      op.think = 500;
    } else {
      op.ab_id = 1;
      op.args = {pq_, draw_prio(rng), rng.next_range(1, 1u << 30)};
      op.think = 300;
      ++pushes_;
    }
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    std::size_t size = 0;
    const std::string err =
        dslib::host_pq_validate(sys.heap(), lib_, pq_, &size);
    if (!err.empty()) return "task queue: " + err;
    // Pops never fabricate tasks: the queue can only hold what was seeded
    // plus what was pushed (replay guard: only the issuing instance
    // counted the pushes).
    const std::uint64_t backlog =
        ops_per_thread() * sys.config().cores / 2 + 256;
    if (pushes_ > 0 && size > backlog + pushes_)
      return "task queue grew impossibly";
    return "";
  }

 private:
  static constexpr unsigned kBuckets = 64;
  static constexpr unsigned kShift = 4;  // priorities 0..1023 -> 64 buckets

  static std::uint64_t draw_prio(Xoshiro256ss& rng) {
    // Branch-and-bound children cluster near the current best bound: bias
    // priorities toward the minimum bucket (min of two uniform draws).
    const std::uint64_t a = rng.next_below(1024);
    const std::uint64_t b = rng.next_below(1024);
    return a < b ? a : b;
  }

  dslib::PqLib lib_;
  sim::Addr pq_ = 0;
  std::uint64_t pushes_ = 0;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_tsp() { return std::make_unique<Tsp>(); }

}  // namespace st::workloads
