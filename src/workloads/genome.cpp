// genome: the gene-sequencing segment-deduplication phase (paper Fig. 3).
// Each transaction inserts a handful of segments from a shared vector into
// a fixed-size (deliberately overloaded) hash table of sorted lists —
// conflict chains across bucket lists are broken by locking promotion to
// the whole table (paper §6.2).
#include <algorithm>

#include "workloads/all.hpp"
#include "workloads/dslib/hashtable.hpp"

namespace st::workloads {

namespace {

class Genome final : public Workload {
 public:
  const char* name() const override { return "genome"; }
  const char* expected_contention() const override { return "low"; }
  std::uint64_t ops_per_thread() const override { return 700; }

  void build_ir(ir::Module& m) override {
    lib_ = dslib::build_hash_lib(m, kBuckets);
    segvec_t_ = m.add_type(ir::make_array("segvec", 8, kSegments, nullptr));

    // TM_BEGIN(): for (ii = i; ii < ii_stop; ii++)
    //   TMhashtable_insert(uniqueSegmentsPtr, vector_at(segments, ii), ...)
    {
      ir::FunctionBuilder b(m, "ab_insert_segments",
                            {lib_.htab_t, segvec_t_, nullptr, nullptr});
      const ir::Reg ht = b.param(0), vec = b.param(1), start = b.param(2),
                    count = b.param(3);
      const ir::Reg one = b.const_i(1);
      const ir::Reg stop = b.add(start, count);
      const ir::Reg ii = b.var(start);
      b.while_([&] { return b.cmp_slt(ii, stop); },
               [&] {
                 const ir::Reg seg = b.load_elem(vec, segvec_t_, ii);
                 b.call(lib_.insert, {ht, seg, seg});
                 b.assign(ii, b.add(ii, one));
               });
      b.ret(one);
      m.add_atomic_block(b.function());
    }
    // Later phases probe the table read-only.
    {
      ir::FunctionBuilder b(m, "ab_lookup_segment", {lib_.htab_t, nullptr});
      b.ret(b.call(lib_.contains, {b.param(0), b.param(1)}));
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    const unsigned arena = heap.setup_arena();
    ht_ = dslib::host_ht_new(heap, arena, lib_, kBuckets);
    segvec_ = heap.alloc(arena, std::size_t{kSegments} * 8, sim::kLineBytes);
    Xoshiro256ss prng(mix64(sys.config().seed) ^ 0x6E01ull);
    segs_.resize(kSegments);
    for (unsigned i = 0; i < kSegments; ++i) {
      segs_[i] = static_cast<std::int64_t>(prng.next_range(1, 1u << 20));
      heap.store(segvec_ + std::size_t{i} * 8,
                 static_cast<std::uint64_t>(segs_[i]), 8);
    }
    issued_.assign(kSegments, false);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0x6E11ull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    Op op;
    if (rng.chance_pct(80)) {
      const std::uint64_t start = rng.next_below(kSegments - kPerTxn);
      for (unsigned i = 0; i < kPerTxn; ++i) issued_[start + i] = true;
      op.ab_id = 0;
      op.args = {ht_, segvec_, start, kPerTxn};
      op.think = 500;
    } else {
      op.ab_id = 1;
      op.args = {ht_, rng.next_range(1, 1u << 20)};
      op.think = 300;
    }
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    const std::string err =
        dslib::host_ht_validate(sys.heap(), lib_, ht_, &items);
    if (!err.empty()) return "segment table: " + err;
    std::vector<std::int64_t> got;
    for (const auto& [k, v] : items) {
      if (k != v) return "segment " + std::to_string(k) + " value corrupted";
      got.push_back(k);
    }
    // The table holds exactly the distinct inserted segments (replay guard:
    // only the issuing instance knows them).
    std::vector<std::int64_t> want;
    for (unsigned i = 0; i < kSegments; ++i)
      if (issued_[i]) want.push_back(segs_[i]);
    if (want.empty()) return "";
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::sort(got.begin(), got.end());
    return got == want ? "" : "table does not match the inserted segments";
  }

 private:
  static constexpr unsigned kBuckets = 1024;  // undersized for the segment count
  static constexpr unsigned kSegments = 16384;
  static constexpr unsigned kPerTxn = 4;

  dslib::HashLib lib_;
  const ir::StructType* segvec_t_ = nullptr;
  sim::Addr ht_ = 0, segvec_ = 0;
  std::vector<std::int64_t> segs_;
  std::vector<bool> issued_;  // per segment index: inserted by some op
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

std::unique_ptr<Workload> make_genome() { return std::make_unique<Genome>(); }

}  // namespace st::workloads
