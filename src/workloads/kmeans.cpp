// kmeans: clustering kernel. Each transaction folds one point into its
// cluster's center accumulator (an array of per-cluster sums plus a count).
// Conflicts concentrate on popular clusters' center rows; both the
// conflicting PC and the data address recur, so staggered transactions can
// lock on a per-cluster basis — close to fine-grain locking (paper §6.2).
#include "workloads/all.hpp"
#include "ir/builder.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {

namespace {

class Kmeans final : public Workload {
 public:
  const char* name() const override { return "kmeans"; }
  const char* expected_contention() const override { return "high"; }
  std::uint64_t ops_per_thread() const override { return 1200; }

  void build_ir(ir::Module& m) override {
    arr_t_ = m.add_type(ir::make_array("i64arr", 8, kClusters * kDims, nullptr));
    // ab_update(centers*, counts*, points*, cluster, point_idx)
    ir::FunctionBuilder b(m, "ab_update",
                          {arr_t_, arr_t_, arr_t_, nullptr, nullptr});
    const ir::Reg centers = b.param(0), counts = b.param(1),
                  points = b.param(2), cluster = b.param(3),
                  pidx = b.param(4);
    const ir::Reg zero = b.const_i(0), one = b.const_i(1);
    const ir::Reg ndim = b.const_i(kDims);
    const ir::Reg cbase = b.mul(cluster, ndim);
    const ir::Reg pbase = b.mul(pidx, ndim);
    const ir::Reg d = b.var(zero);
    b.while_([&] { return b.cmp_slt(d, ndim); },
             [&] {
               const ir::Reg ci = b.add(cbase, d);
               const ir::Reg pi = b.add(pbase, d);
               const ir::Reg cv = b.load_elem(centers, arr_t_, ci);
               const ir::Reg pv = b.load_elem(points, arr_t_, pi);
               b.store_elem(centers, arr_t_, ci, b.add(cv, pv));
               b.assign(d, b.add(d, one));
             });
    // Counters are padded to one per cache line (stride 8) so different
    // clusters' counts do not false-share.
    const ir::Reg cidx = b.mul(cluster, b.const_i(8));
    const ir::Reg cnt = b.load_elem(counts, arr_t_, cidx);
    b.store_elem(counts, arr_t_, cidx, b.add(cnt, one));
    b.ret(one);
    m.add_atomic_block(b.function());
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    centers_ = heap.alloc(arena, kClusters * kDims * 8, sim::kLineBytes);
    counts_ = heap.alloc(arena, kClusters * 8 * 8, sim::kLineBytes);
    points_ = heap.alloc(arena, std::size_t{kPoints} * kDims * 8,
                         sim::kLineBytes);
    Xoshiro256ss prng(mix64(sys.config().seed) ^ 0x63D1ull);
    assign_.resize(kPoints);
    for (unsigned p = 0; p < kPoints; ++p) {
      // Zipf-ish cluster popularity: low clusters get most points, so their
      // center rows become the recurring conflict addresses.
      const unsigned a = static_cast<unsigned>(prng.next_below(kClusters));
      const unsigned b2 = static_cast<unsigned>(prng.next_below(kClusters));
      const unsigned cluster = a < b2 ? a : b2;
      assign_[p] = cluster;
      for (unsigned d = 0; d < kDims; ++d) {
        const std::uint64_t v = prng.next_below(1000) + 1;
        heap.store(points_ + (std::size_t{p} * kDims + d) * 8, v, 8);
      }
    }
    issued_.assign(sys.config().cores, {});
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x63E1ull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    const std::uint64_t p = rng.next_below(kPoints);
    issued_[thread].push_back(static_cast<unsigned>(p));
    Op op;
    op.ab_id = 0;
    op.args = {centers_, counts_, points_, assign_[p], p};
    op.think = 350;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    // Replay the deterministic schedule and compare exact sums: every
    // committed transaction's updates must be present exactly once (replay
    // guard: only the issuing instance knows the schedule).
    const sim::Heap& heap = sys.heap();
    std::vector<std::uint64_t> want_center(kClusters * kDims, 0);
    std::vector<std::uint64_t> want_count(kClusters, 0);
    std::uint64_t folds = 0;
    for (const auto& per_thread : issued_) {
      for (unsigned p : per_thread) {
        const unsigned c = assign_[p];
        ++want_count[c];
        ++folds;
        for (unsigned d = 0; d < kDims; ++d)
          want_center[std::size_t{c} * kDims + d] +=
              heap.load(points_ + (std::size_t{p} * kDims + d) * 8, 8);
      }
    }
    if (folds == 0) return "";
    for (unsigned c = 0; c < kClusters; ++c) {
      const std::string cl = "cluster " + std::to_string(c);
      if (heap.load(counts_ + std::size_t{c} * 64, 8) != want_count[c])
        return cl + " lost or duplicated a count update";
      for (unsigned d = 0; d < kDims; ++d) {
        const std::size_t i = std::size_t{c} * kDims + d;
        if (heap.load(centers_ + i * 8, 8) != want_center[i])
          return cl + " lost or duplicated a center update";
      }
    }
    return "";
  }

 private:
  static constexpr unsigned kClusters = 16;
  static constexpr unsigned kDims = 8;  // one cache line per cluster row
  static constexpr unsigned kPoints = 2048;

  const ir::StructType* arr_t_ = nullptr;
  sim::Addr centers_ = 0, counts_ = 0, points_ = 0;
  std::vector<unsigned> assign_;
  std::vector<std::vector<unsigned>> issued_;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_kmeans() { return std::make_unique<Kmeans>(); }

}  // namespace st::workloads
