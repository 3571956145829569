// list-lo / list-hi: the RSTM IntSet microbenchmark. Threads search and
// update one shared, sorted 64-node list. list-lo: 90/5/5
// lookup/insert/delete; list-hi: 60/20/20 (Table 4).
#include "workloads/all.hpp"
#include "workloads/dslib/list.hpp"

namespace st::workloads {

namespace {

class ListBench final : public Workload {
 public:
  ListBench(const char* name, unsigned lookup_pct, unsigned update_pct_each,
            const char* contention)
      : name_(name),
        lookup_pct_(lookup_pct),
        update_pct_each_(update_pct_each),
        contention_(contention) {}

  const char* name() const override { return name_; }
  const char* expected_contention() const override { return contention_; }
  std::uint64_t ops_per_thread() const override { return 1500; }

  void build_ir(ir::Module& m) override {
    lib_ = dslib::build_list_lib(m);
    {
      ir::FunctionBuilder b(m, "ab_lookup", {lib_.list_t, nullptr});
      b.ret(b.call(lib_.contains, {b.param(0), b.param(1)}));
      m.add_atomic_block(b.function());
    }
    {
      ir::FunctionBuilder b(m, "ab_insert", {lib_.list_t, nullptr});
      b.ret(b.call(lib_.insert, {b.param(0), b.param(1), b.param(1)}));
      m.add_atomic_block(b.function());
    }
    {
      ir::FunctionBuilder b(m, "ab_remove", {lib_.list_t, nullptr});
      b.ret(b.call(lib_.remove, {b.param(0), b.param(1)}));
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    list_ = dslib::host_list_new(heap, arena, lib_);
    // 64 nodes over a 128-key space: every even key present initially.
    sim::Addr tail = 0;
    for (std::int64_t k = 2; k <= 2 * kNodes; k += 2)
      tail = dslib::host_list_append(heap, arena, lib_, list_, tail, k, k);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0xABCDull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    const std::uint64_t key = rng.next_range(1, 2 * kNodes);
    const unsigned dice = static_cast<unsigned>(rng.next_below(100));
    Op op;
    op.args = {list_, key};
    op.think = 100;
    if (dice < lookup_pct_)
      op.ab_id = 0;
    else if (dice < lookup_pct_ + update_pct_each_)
      op.ab_id = 1;
    else
      op.ab_id = 2;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    std::string err = dslib::host_list_validate(
        sys.heap(), lib_, list_, /*require_sorted=*/true, &items, 4 * kNodes);
    if (!err.empty()) return err;
    for (const auto& [key, val] : items) {
      if (key < 1 || key > 2 * kNodes)
        return "key " + std::to_string(key) + " out of range";
      if (val != key)
        return "node key " + std::to_string(key) + " has val " +
               std::to_string(val);
    }
    return "";
  }

  std::uint64_t state_digest(runtime::TxSystem& sys) override {
    std::uint64_t d = 0x115Cull;
    for (const auto& [key, val] : dslib::host_list_items(sys.heap(), lib_,
                                                         list_))
      d = mix64(d ^ static_cast<std::uint64_t>(key)) +
          mix64(static_cast<std::uint64_t>(val));
    return d;
  }

 private:
  static constexpr std::int64_t kNodes = 64;
  const char* name_;
  unsigned lookup_pct_;
  unsigned update_pct_each_;
  const char* contention_;
  dslib::ListLib lib_;
  sim::Addr list_ = 0;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_list_lo() {
  return std::make_unique<ListBench>("list-lo", 90, 5, "med");
}
std::unique_ptr<Workload> make_list_hi() {
  return std::make_unique<ListBench>("list-hi", 60, 20, "high");
}

}  // namespace st::workloads
