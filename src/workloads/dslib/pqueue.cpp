#include "workloads/dslib/pqueue.hpp"

#include "common/check.hpp"

namespace st::workloads::dslib {

using ir::FunctionBuilder;
using ir::Reg;

PqLib build_pq_lib(ir::Module& m, unsigned nbuckets) {
  PqLib lib;
  lib.list = build_list_lib(m);
  if (const ir::StructType* t = m.find_type("pq")) {
    lib.pq_t = t;
    lib.pbucketarr_t = m.find_type("pbucketarr");
    lib.push = m.find_function("pq_push");
    lib.pop = m.find_function("pq_pop");
    return lib;
  }

  lib.pbucketarr_t =
      m.add_type(ir::make_array("pbucketarr", 8, nbuckets, lib.list.list_t));
  lib.pq_t = m.add_type(ir::make_struct(
      "pq", {{"nbuckets", 0, 8, nullptr},
             {"shift", 0, 8, nullptr},
             {"buckets", 0, 8, lib.pbucketarr_t}}));

  // pq_push(pq*, prio, val) -> 0.
  {
    FunctionBuilder b(m, "pq_push", {lib.pq_t, nullptr, nullptr});
    const Reg pq = b.param(0), prio = b.param(1), val = b.param(2);
    const Reg n = b.load_field(pq, lib.pq_t, "nbuckets");
    const Reg sh = b.load_field(pq, lib.pq_t, "shift");
    const Reg one = b.const_i(1);
    const Reg idx = b.var(b.lshr(prio, sh));
    const Reg last = b.sub(n, one);
    b.if_(b.cmp_sgt(idx, last), [&] { b.assign(idx, last); });
    const Reg barr = b.load_field(pq, lib.pq_t, "buckets");
    const Reg lp = b.load_elem(barr, lib.pbucketarr_t, idx);
    b.call(lib.list.push_front, {lp, prio, val});
    b.ret(b.const_i(0));
    lib.push = b.function();
  }

  // pq_pop(pq*) -> val: scan buckets from the minimum (head of the queue).
  {
    FunctionBuilder b(m, "pq_pop", {lib.pq_t});
    const Reg pq = b.param(0);
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg n = b.load_field(pq, lib.pq_t, "nbuckets");
    const Reg barr = b.load_field(pq, lib.pq_t, "buckets");
    const Reg i = b.var(zero);
    const Reg out = b.var(zero);
    auto* head = b.new_block("head");
    auto* body = b.new_block("body");
    auto* next = b.new_block("next");
    auto* done = b.new_block("done");
    b.br(head);
    b.set_insert(head);
    b.cond_br(b.cmp_slt(i, n), body, done);
    b.set_insert(body);
    const Reg lp = b.load_elem(barr, lib.pbucketarr_t, i);
    const Reg v = b.call(lib.list.pop_front, {lp});
    b.assign(out, v);
    b.cond_br(b.cmp_ne(v, zero), done, next);
    b.set_insert(next);
    b.assign(i, b.add(i, one));
    b.br(head);
    b.set_insert(done);
    b.ret(out);
    lib.pop = b.function();
  }
  return lib;
}

sim::Addr host_pq_new(sim::Heap& heap, unsigned arena, const PqLib& lib,
                      unsigned nbuckets, unsigned shift) {
  ST_CHECK(nbuckets >= 1);
  const sim::Addr pq = heap.alloc(arena, lib.pq_t->size);
  const sim::Addr barr =
      heap.alloc(arena, std::size_t{nbuckets} * 8, sim::kLineBytes);
  heap.store(pq + lib.pq_t->field(0).offset, nbuckets, 8);
  heap.store(pq + lib.pq_t->field(1).offset, shift, 8);
  heap.store(pq + lib.pq_t->field(2).offset, barr, 8);
  for (unsigned i = 0; i < nbuckets; ++i)
    heap.store(barr + std::size_t{i} * 8,
               host_list_new(heap, arena, lib.list), 8);
  return pq;
}

namespace {
/// The bucket list `prio` goes to.
sim::Addr host_pq_bucket(const sim::Heap& heap, const PqLib& lib,
                         sim::Addr pq, std::int64_t prio, std::int64_t val) {
  ST_CHECK(prio >= 0 && val != 0);
  const auto n = heap.load(pq + lib.pq_t->field(0).offset, 8);
  const auto sh = heap.load(pq + lib.pq_t->field(1).offset, 8);
  std::uint64_t idx = static_cast<std::uint64_t>(prio) >> sh;
  if (idx >= n) idx = n - 1;
  const sim::Addr barr = heap.load(pq + lib.pq_t->field(2).offset, 8);
  return heap.load(barr + idx * 8, 8);
}
}  // namespace

void host_pq_push(sim::Heap& heap, unsigned arena, const PqLib& lib,
                  sim::Addr pq, std::int64_t prio, std::int64_t val) {
  host_list_push_sorted(heap, arena, lib.list,
                        host_pq_bucket(heap, lib, pq, prio, val), prio, val);
}

void host_pq_push_all(
    sim::Heap& heap, unsigned arena, const PqLib& lib, sim::Addr pq,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& entries) {
  std::vector<SortedPush> pushes;
  pushes.reserve(entries.size());
  for (const auto& [prio, val] : entries)
    pushes.push_back({host_pq_bucket(heap, lib, pq, prio, val), prio, val});
  host_lists_push_sorted(heap, arena, lib.list, pushes);
}

std::string host_pq_validate(const sim::Heap& heap, const PqLib& lib,
                             sim::Addr pq, std::size_t* size_out) {
  if (!heap.contains(pq) || pq % 8 != 0) return "pq header is wild";
  const auto n = heap.load(pq + lib.pq_t->field(0).offset, 8);
  const sim::Addr barr = heap.load(pq + lib.pq_t->field(2).offset, 8);
  if (n == 0 || n > (1u << 24) || !heap.contains(barr) || barr % 8 != 0 ||
      !heap.contains(barr + n * 8 - 1))
    return "pq bucket array is wild";
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::Addr lp = heap.load(barr + i * 8, 8);
    const std::string err = host_list_validate(
        heap, lib.list, lp, /*require_sorted=*/false, &items);
    if (!err.empty()) return "bucket " + std::to_string(i) + ": " + err;
  }
  if (size_out != nullptr) *size_out = items.size();
  return "";
}

}  // namespace st::workloads::dslib
