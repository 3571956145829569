// vacation: travel-reservation system. Flights, rooms and cars live in
// search trees (BSTs; DESIGN.md: red–black substitute); most transactions
// are multi-table queries with a single capacity decrement. Contention is
// low despite sizable read sets — the paper's "reasonable speedup but
// wasted work still visible" case.
#include "workloads/all.hpp"
#include "workloads/dslib/bst.hpp"
#include "workloads/dslib/list.hpp"

namespace st::workloads {

namespace {

class Vacation final : public Workload {
 public:
  const char* name() const override { return "vacation"; }
  const char* expected_contention() const override { return "med"; }
  std::uint64_t ops_per_thread() const override { return 700; }

  void build_ir(ir::Module& m) override {
    bst_ = dslib::build_bst_lib(m);
    list_ = dslib::build_list_lib(m);

    // ab_reserve(flights, rooms, cars, customers, k1, k2, k3, which):
    // price every table, reserve capacity on table `which`, then record the
    // itinerary on the customer list.
    {
      ir::FunctionBuilder b(m, "ab_reserve",
                            {bst_.tree_t, bst_.tree_t, bst_.tree_t,
                             list_.list_t, nullptr, nullptr, nullptr,
                             nullptr});
      const ir::Reg fl = b.param(0), rm = b.param(1), cr = b.param(2),
                    cust = b.param(3), k1 = b.param(4), k2 = b.param(5),
                    k3 = b.param(6), which = b.param(7);
      const ir::Reg zero = b.const_i(0);
      const ir::Reg p1 = b.call(bst_.lookup, {fl, k1});
      const ir::Reg p2 = b.call(bst_.lookup, {rm, k2});
      const ir::Reg p3 = b.call(bst_.lookup, {cr, k3});
      const ir::Reg price = b.add(p1, b.add(p2, p3));
      const ir::Reg ok = b.var(zero);
      b.if_(b.cmp_eq(which, zero),
            [&] { b.assign(ok, b.call(bst_.reserve, {fl, k1})); });
      b.if_(b.cmp_eq(which, b.const_i(1)),
            [&] { b.assign(ok, b.call(bst_.reserve, {rm, k2})); });
      b.if_(b.cmp_eq(which, b.const_i(2)),
            [&] { b.assign(ok, b.call(bst_.reserve, {cr, k3})); });
      b.if_(b.cmp_ne(ok, zero), [&] {
        // Customer ids are thread-unique; price is the payload.
        b.call(list_.push_front, {cust, k1, price});
      });
      b.ret(ok);
      m.add_atomic_block(b.function());
    }
    // ab_cancel(tree, key): return capacity.
    {
      ir::FunctionBuilder b(m, "ab_cancel", {bst_.tree_t, nullptr});
      b.ret(b.call(bst_.restore, {b.param(0), b.param(1)}));
      m.add_atomic_block(b.function());
    }
    // ab_update_tables(tree, key, val): the manager adds inventory.
    {
      ir::FunctionBuilder b(m, "ab_update_tables",
                            {bst_.tree_t, nullptr, nullptr});
      b.ret(b.call(bst_.insert, {b.param(0), b.param(1), b.param(2)}));
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    Xoshiro256ss prng(mix64(sys.config().seed) ^ 0x7AC1ull);
    for (unsigned t = 0; t < 3; ++t) {
      trees_[t] = dslib::host_bst_new(heap, arena, bst_);
      std::set<std::int64_t> keys;
      while (keys.size() < kRelations)
        keys.insert(static_cast<std::int64_t>(prng.next_range(1, kKeyMax)));
      tree_keys_[t].assign(keys.begin(), keys.end());
      // Insert in random order: sorted insertion would degenerate the
      // unbalanced BST into a 2048-deep list.
      auto& tk = tree_keys_[t];
      for (std::size_t i = tk.size(); i > 1; --i)
        std::swap(tk[i - 1], tk[prng.next_below(i)]);
      for (std::int64_t k : tk)
        dslib::host_bst_insert(heap, arena, bst_, trees_[t], k, kCapacity);
    }
    customers_ = dslib::host_list_new(heap, arena, list_);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x7AD1ull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    const unsigned dice = static_cast<unsigned>(rng.next_below(100));
    Op op;
    if (dice < 90) {  // -u90: user sessions; most only price itineraries
      // `which` = 3 prices without reserving (read-only), matching the
      // paper's low vacation abort rate.
      const std::uint64_t which = dice < 54 ? 3 : rng.next_below(3);
      op.ab_id = 0;
      op.args = {trees_[0],
                 trees_[1],
                 trees_[2],
                 customers_,
                 pick_key(rng, 0),
                 pick_key(rng, 1),
                 pick_key(rng, 2),
                 which};
      op.think = 220;
    } else if (dice < 95) {
      const unsigned t = static_cast<unsigned>(rng.next_below(3));
      op.ab_id = 1;
      op.args = {trees_[t], pick_key(rng, t)};
      op.think = 150;
    } else {
      const unsigned t = static_cast<unsigned>(rng.next_below(3));
      op.ab_id = 2;
      op.args = {trees_[t], rng.next_range(kKeyMax + 1, 4 * kKeyMax),
                 kCapacity};
      op.think = 150;
    }
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    static const char* const kTables[3] = {"flights", "rooms", "cars"};
    for (unsigned t = 0; t < 3; ++t) {
      std::int64_t sum = 0;
      std::string err =
          dslib::host_bst_validate(sys.heap(), bst_, trees_[t], &sum);
      if (!err.empty()) return std::string(kTables[t]) + ": " + err;
      if (sum < 0)
        return std::string(kTables[t]) + ": capacity sum went negative";
    }
    // Customer itineraries are a LIFO list — structurally sound, any order.
    return dslib::host_list_validate(sys.heap(), list_, customers_,
                                     /*require_sorted=*/false);
  }

  std::uint64_t state_digest(runtime::TxSystem& sys) override {
    std::uint64_t d = 0x7AC47104ull;
    for (unsigned t = 0; t < 3; ++t)
      d = dslib::host_bst_digest(sys.heap(), bst_, trees_[t], d);
    for (const auto& [key, val] :
         dslib::host_list_items(sys.heap(), list_, customers_))
      d = mix64(d ^ static_cast<std::uint64_t>(key)) +
          mix64(static_cast<std::uint64_t>(val));
    return d;
  }

 private:
  static constexpr unsigned kRelations = 2048;
  static constexpr std::int64_t kKeyMax = 16384;
  static constexpr std::int64_t kCapacity = 100;

  std::uint64_t pick_key(Xoshiro256ss& rng, unsigned t) {
    const auto& keys = tree_keys_[t];
    return static_cast<std::uint64_t>(keys[rng.next_below(keys.size())]);
  }

  dslib::BstLib bst_;
  dslib::ListLib list_;
  sim::Addr trees_[3] = {0, 0, 0};
  std::vector<std::int64_t> tree_keys_[3];
  sim::Addr customers_ = 0;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_vacation() {
  return std::make_unique<Vacation>();
}

}  // namespace st::workloads
