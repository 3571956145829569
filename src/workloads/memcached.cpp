// memcached: in-memory key-value store (network front end elided; generated
// commands injected directly, exactly as the paper does). Most conflicts
// come from the global statistics block updated in the middle of get/set
// transactions — the single hot cache line whose precise-mode advisory lock
// staggers the statistics suffix while hash lookups proceed in parallel.
#include "workloads/all.hpp"
#include "workloads/dslib/hashtable.hpp"

namespace st::workloads {

namespace {

class Memcached final : public Workload {
 public:
  const char* name() const override { return "memcached"; }
  const char* expected_contention() const override { return "high"; }
  std::uint64_t ops_per_thread() const override { return 900; }

  void build_ir(ir::Module& m) override {
    lib_ = dslib::build_hash_lib(m, kBuckets);
    stats_t_ = m.add_type(ir::make_struct(
        "mstats", {{"cmd_get", 0, 8, nullptr},
                   {"cmd_set", 0, 8, nullptr},
                   {"get_hits", 0, 8, nullptr},
                   {"get_misses", 0, 8, nullptr},
                   {"bytes_read", 0, 8, nullptr},
                   {"bytes_written", 0, 8, nullptr},
                   {"curr_items", 0, 8, nullptr},
                   {"total_items", 0, 8, nullptr}}));

    auto bump = [&](ir::FunctionBuilder& b, ir::Reg stats, const char* f,
                    ir::Reg delta) {
      const ir::Reg v = b.load_field(stats, stats_t_, f);
      b.store_field(stats, stats_t_, f, b.add(v, delta));
    };

    // ab_get(ht, stats, key) -> val.
    {
      ir::FunctionBuilder b(m, "ab_get", {lib_.htab_t, stats_t_, nullptr});
      const ir::Reg ht = b.param(0), stats = b.param(1), key = b.param(2);
      const ir::Reg zero = b.const_i(0), one = b.const_i(1);
      const ir::Reg n = b.call(lib_.find, {ht, key});
      const ir::Reg out = b.var(zero);
      // Statistics land mid-transaction, after the table walk (§6.2).
      bump(b, stats, "cmd_get", one);
      b.if_else(
          b.cmp_ne(n, zero),
          [&] {
            bump(b, stats, "get_hits", one);
            const ir::Reg v = b.load_field(n, lib_.list.node_t, "val");
            b.assign(out, v);
            bump(b, stats, "bytes_read", b.const_i(64));
          },
          [&] { bump(b, stats, "get_misses", one); });
      b.ret(out);
      m.add_atomic_block(b.function());
    }
    // ab_set(ht, stats, key, val) -> bool.
    {
      ir::FunctionBuilder b(m, "ab_set",
                            {lib_.htab_t, stats_t_, nullptr, nullptr});
      const ir::Reg ht = b.param(0), stats = b.param(1), key = b.param(2),
                    val = b.param(3);
      const ir::Reg zero = b.const_i(0), one = b.const_i(1);
      const ir::Reg updated = b.call(lib_.update, {ht, key, val});
      b.if_(b.cmp_eq(updated, zero), [&] {
        b.call(lib_.insert, {ht, key, val});
        bump(b, stats, "curr_items", one);
      });
      bump(b, stats, "cmd_set", one);
      bump(b, stats, "total_items", one);
      bump(b, stats, "bytes_written", b.const_i(64));
      b.ret(one);
      m.add_atomic_block(b.function());
    }
    // ab_delete(ht, stats, key) -> bool.
    {
      ir::FunctionBuilder b(m, "ab_delete",
                            {lib_.htab_t, stats_t_, nullptr});
      const ir::Reg ht = b.param(0), stats = b.param(1), key = b.param(2);
      const ir::Reg one = b.const_i(1);
      const ir::Reg removed = b.call(lib_.remove, {ht, key});
      b.if_(removed, [&] {
        const ir::Reg v = b.load_field(stats, stats_t_, "curr_items");
        b.store_field(stats, stats_t_, "curr_items", b.sub(v, one));
      });
      b.ret(removed);
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    ht_ = dslib::host_ht_new(heap, arena, lib_, kBuckets);
    stats_ = heap.alloc_line_aligned(arena, stats_t_->size);
    Xoshiro256ss prng(mix64(sys.config().seed) ^ 0x3E3Eull);
    std::set<std::int64_t> keys;
    while (keys.size() < kItems)
      keys.insert(static_cast<std::int64_t>(prng.next_range(1, kKeyMax)));
    for (std::int64_t k : keys) dslib::host_ht_insert(heap, arena, lib_, ht_, k, k);
    keys_.assign(keys.begin(), keys.end());
    cmds_.assign(3, 0);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x3E4Eull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    const unsigned dice = static_cast<unsigned>(rng.next_below(100));
    const std::uint64_t key = keys_[rng.next_below(keys_.size())];
    Op op;
    if (dice < 80) {
      op.ab_id = 0;
      op.args = {ht_, stats_, key};
      ++cmds_[0];
    } else if (dice < 95) {
      op.ab_id = 1;
      op.args = {ht_, stats_, key, rng.next_range(1, 1u << 20)};
      ++cmds_[1];
    } else {
      op.ab_id = 2;
      op.args = {ht_, stats_, key};
      ++cmds_[2];
    }
    op.think = 280;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    const sim::Heap& heap = sys.heap();
    const std::string err = dslib::host_ht_validate(heap, lib_, ht_);
    if (!err.empty()) return "item table: " + err;
    auto field = [&](const char* f) {
      return heap.load(stats_ + stats_t_->fields[stats_t_->field_index(f)].offset,
                       8);
    };
    if (field("get_hits") + field("get_misses") != field("cmd_get"))
      return "hit/miss accounting broken";
    // Command counters are exact: every issued command commits exactly
    // once (replay guard: only the issuing instance counted them).
    if (cmds_[0] + cmds_[1] + cmds_[2] > 0 &&
        (field("cmd_get") != cmds_[0] || field("cmd_set") != cmds_[1]))
      return "lost or duplicated get/set stats";
    return "";
  }

 private:
  static constexpr unsigned kBuckets = 256;
  static constexpr unsigned kItems = 2048;
  static constexpr std::int64_t kKeyMax = 1 << 20;

  dslib::HashLib lib_;
  const ir::StructType* stats_t_ = nullptr;
  sim::Addr ht_ = 0, stats_ = 0;
  std::vector<std::int64_t> keys_;
  std::vector<std::uint64_t> cmds_;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_memcached() {
  return std::make_unique<Memcached>();
}

}  // namespace st::workloads
