// intruder: network-intrusion-detection pipeline. Workers pull packets off
// a shared work queue, reassemble fragments in a shared map, and append the
// decoded flow to a completion queue at the *end* of the (long) processing
// transaction — the enqueue near commit time is the contention the paper
// calls out (TMdecoder_process).
#include "workloads/all.hpp"
#include "workloads/dslib/hashtable.hpp"

namespace st::workloads {

namespace {

class Intruder final : public Workload {
 public:
  const char* name() const override { return "intruder"; }
  const char* expected_contention() const override { return "high"; }
  std::uint64_t ops_per_thread() const override { return 800; }

  void build_ir(ir::Module& m) override {
    lib_ = dslib::build_hash_lib(m, kBuckets);

    // ab_getwork(queue*) -> packet id (0 = drained).
    {
      ir::FunctionBuilder b(m, "ab_getwork", {lib_.list.list_t});
      b.ret(b.call(lib_.list.pop_front, {b.param(0)}));
      m.add_atomic_block(b.function());
    }
    // ab_process(map*, outq*, flow, frag): insert kFrags fragments into the
    // reassembly map, then enqueue the completed flow (contended tail work).
    {
      ir::FunctionBuilder b(m, "ab_process",
                            {lib_.htab_t, lib_.list.list_t, nullptr, nullptr});
      const ir::Reg map = b.param(0), outq = b.param(1), flow = b.param(2),
                    frag = b.param(3);
      const ir::Reg one = b.const_i(1);
      const ir::Reg i = b.var(b.const_i(0));
      const ir::Reg nfrags = b.const_i(kFrags);
      b.while_([&] { return b.cmp_slt(i, nfrags); },
               [&] {
                 const ir::Reg key = b.add(b.mul(flow, nfrags), i);
                 b.call(lib_.insert, {map, key, frag});
                 b.assign(i, b.add(i, one));
               });
      b.call(lib_.list.push_front, {outq, flow, flow});
      b.ret(one);
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    map_ = dslib::host_ht_new(heap, arena, lib_, kBuckets);
    inq_ = dslib::host_list_new(heap, arena, lib_.list);
    outq_ = dslib::host_list_new(heap, arena, lib_.list);
    const std::uint64_t packets = ops_per_thread() * sys.config().cores + 64;
    sim::Addr tail = 0;
    for (std::uint64_t i = 0; i < packets; ++i) {
      const auto key = static_cast<std::int64_t>(i + 1);
      tail = dslib::host_list_append(heap, arena, lib_.list, inq_, tail, key,
                                     key);
    }
    next_flow_.assign(sys.config().cores, 0);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x1D7Bull * (t + 3)));
  }

  Op next_op(runtime::TxSystem& sys, unsigned thread,
             std::uint64_t op_index) override {
    auto& rng = rngs_[thread];
    Op op;
    if (op_index % 2 == 0) {
      op.ab_id = 0;  // get work
      op.args = {inq_};
      op.think = 250;
    } else {
      // Flow ids are partitioned by thread so map keys never collide
      // across threads at the key level (conflicts are structural).
      const std::uint64_t flow =
          1 + thread * 1'000'000ull + next_flow_[thread]++;
      op.ab_id = 1;
      op.args = {map_, outq_, flow, rng.next_range(1, 1u << 16)};
      op.think = 380;
      ++processed_;
      (void)sys;
    }
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    std::vector<std::pair<std::int64_t, std::int64_t>> frags;
    std::string err = dslib::host_ht_validate(sys.heap(), lib_, map_, &frags);
    if (!err.empty()) return "reassembly map: " + err;
    err = dslib::host_list_validate(sys.heap(), lib_.list, inq_,
                                    /*require_sorted=*/true);
    if (!err.empty()) return "work queue: " + err;
    std::vector<std::pair<std::int64_t, std::int64_t>> flows;
    err = dslib::host_list_validate(sys.heap(), lib_.list, outq_,
                                    /*require_sorted=*/false, &flows);
    if (!err.empty()) return "completion queue: " + err;
    // Count conservation only holds on the instance that generated the ops
    // (oracle replay instances see processed_ == 0 until they re-run them).
    if (processed_ > 0) {
      if (flows.size() != processed_)
        return "completion queue has " + std::to_string(flows.size()) +
               " flows, expected " + std::to_string(processed_);
      if (frags.size() != processed_ * kFrags)
        return "reassembly map has " + std::to_string(frags.size()) +
               " fragments, expected " + std::to_string(processed_ * kFrags);
    }
    return "";
  }

  std::uint64_t state_digest(runtime::TxSystem& sys) override {
    std::uint64_t d = 0x1D7B0D16ull;
    for (const auto& [key, val] : dslib::host_ht_items(sys.heap(), lib_, map_))
      d = mix64(d ^ static_cast<std::uint64_t>(key)) +
          mix64(static_cast<std::uint64_t>(val));
    for (const auto& [key, val] :
         dslib::host_list_items(sys.heap(), lib_.list, outq_))
      d = mix64(d ^ static_cast<std::uint64_t>(key)) +
          mix64(static_cast<std::uint64_t>(val));
    for (const auto& [key, val] :
         dslib::host_list_items(sys.heap(), lib_.list, inq_))
      d = mix64(d ^ static_cast<std::uint64_t>(key)) +
          mix64(static_cast<std::uint64_t>(val));
    return d;
  }

 private:
  static constexpr unsigned kBuckets = 256;
  static constexpr unsigned kFrags = 4;

  dslib::HashLib lib_;
  sim::Addr map_ = 0, inq_ = 0, outq_ = 0;
  std::vector<std::uint64_t> next_flow_;
  std::uint64_t processed_ = 0;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_intruder() {
  return std::make_unique<Intruder>();
}

}  // namespace st::workloads
