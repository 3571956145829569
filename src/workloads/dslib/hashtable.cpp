#include "workloads/dslib/hashtable.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace st::workloads::dslib {

using ir::FunctionBuilder;
using ir::Reg;

HashLib build_hash_lib(ir::Module& m, unsigned nbuckets) {
  HashLib lib;
  lib.list = build_list_lib(m);
  if (const ir::StructType* t = m.find_type("htab")) {
    lib.htab_t = t;
    lib.bucketarr_t = m.find_type("bucketarr");
    lib.insert = m.find_function("ht_insert");
    lib.contains = m.find_function("ht_contains");
    lib.find = m.find_function("ht_find");
    lib.update = m.find_function("ht_update");
    lib.remove = m.find_function("ht_remove");
    return lib;
  }

  lib.bucketarr_t =
      m.add_type(ir::make_array("bucketarr", 8, nbuckets, lib.list.list_t));
  lib.htab_t = m.add_type(ir::make_struct(
      "htab", {{"nbuckets", 0, 8, nullptr},
               {"buckets", 0, 8, lib.bucketarr_t}}));

  // Shared prologue: hash the key to a bucket list.
  auto bucket_of = [&](FunctionBuilder& b, Reg ht, Reg key) -> Reg {
    const Reg n = b.load_field(ht, lib.htab_t, "nbuckets");
    const Reg idx = b.srem(key, n);
    const Reg barr = b.load_field(ht, lib.htab_t, "buckets");
    return b.load_elem(barr, lib.bucketarr_t, idx);
  };

  {
    FunctionBuilder b(m, "ht_insert", {lib.htab_t, nullptr, nullptr});
    const Reg lp = bucket_of(b, b.param(0), b.param(1));
    b.ret(b.call(lib.list.insert, {lp, b.param(1), b.param(2)}));
    lib.insert = b.function();
  }
  {
    FunctionBuilder b(m, "ht_contains", {lib.htab_t, nullptr});
    const Reg lp = bucket_of(b, b.param(0), b.param(1));
    b.ret(b.call(lib.list.contains, {lp, b.param(1)}));
    lib.contains = b.function();
  }
  {
    FunctionBuilder b(m, "ht_find", {lib.htab_t, nullptr});
    const Reg key = b.param(1);
    const Reg lp = bucket_of(b, b.param(0), key);
    const Reg zero = b.const_i(0);
    const Reg n = b.call(lib.list.find, {lp, key});
    const Reg out = b.var(zero);
    b.if_(b.cmp_ne(n, zero), [&] {
      const Reg k = b.load_field(n, lib.list.node_t, "key");
      b.if_(b.cmp_eq(k, key), [&] { b.assign(out, n); });
    });
    b.ret(out);
    lib.find = b.function();
  }
  {
    FunctionBuilder b(m, "ht_update", {lib.htab_t, nullptr, nullptr});
    const Reg key = b.param(1), val = b.param(2);
    const Reg zero = b.const_i(0);
    const Reg n = b.call(lib.find, {b.param(0), key});
    const Reg ok = b.var(zero);
    b.if_(b.cmp_ne(n, zero), [&] {
      b.store_field(n, lib.list.node_t, "val", val);
      b.assign(ok, b.const_i(1));
    });
    b.ret(ok);
    lib.update = b.function();
  }
  {
    FunctionBuilder b(m, "ht_remove", {lib.htab_t, nullptr});
    const Reg lp = bucket_of(b, b.param(0), b.param(1));
    b.ret(b.call(lib.list.remove, {lp, b.param(1)}));
    lib.remove = b.function();
  }
  return lib;
}

sim::Addr host_ht_new(sim::Heap& heap, unsigned arena, const HashLib& lib,
                      unsigned nbuckets) {
  ST_CHECK(nbuckets >= 1);
  const sim::Addr ht = heap.alloc(arena, lib.htab_t->size);
  const sim::Addr barr =
      heap.alloc(arena, std::size_t{nbuckets} * 8, sim::kLineBytes);
  heap.store(ht + lib.htab_t->field(0).offset, nbuckets, 8);
  heap.store(ht + lib.htab_t->field(1).offset, barr, 8);
  for (unsigned i = 0; i < nbuckets; ++i)
    heap.store(barr + std::size_t{i} * 8,
               host_list_new(heap, arena, lib.list), 8);
  return ht;
}

unsigned host_ht_bucket(const sim::Heap& heap, const HashLib& lib,
                        sim::Addr ht, std::int64_t key) {
  const auto n = static_cast<std::int64_t>(
      heap.load(ht + lib.htab_t->field(0).offset, 8));
  ST_CHECK(key >= 0 && n > 0);
  return static_cast<unsigned>(key % n);
}

void host_ht_insert(sim::Heap& heap, unsigned arena, const HashLib& lib,
                    sim::Addr ht, std::int64_t key, std::int64_t val) {
  const unsigned idx = host_ht_bucket(heap, lib, ht, key);
  const sim::Addr barr = heap.load(ht + lib.htab_t->field(1).offset, 8);
  const sim::Addr lp = heap.load(barr + std::size_t{idx} * 8, 8);
  host_list_push_sorted(heap, arena, lib.list, lp, key, val);
}

std::vector<std::pair<std::int64_t, std::int64_t>> host_ht_items(
    const sim::Heap& heap, const HashLib& lib, sim::Addr ht) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  const auto n = heap.load(ht + lib.htab_t->field(0).offset, 8);
  const sim::Addr barr = heap.load(ht + lib.htab_t->field(1).offset, 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::Addr lp = heap.load(barr + i * 8, 8);
    const auto items = host_list_items(heap, lib.list, lp);
    out.insert(out.end(), items.begin(), items.end());
  }
  return out;
}

std::string host_ht_validate(
    const sim::Heap& heap, const HashLib& lib, sim::Addr ht,
    std::vector<std::pair<std::int64_t, std::int64_t>>* items_out) {
  char buf[160];
  if (!heap.contains(ht) || ht % 8 != 0) {
    std::snprintf(buf, sizeof buf, "htab header 0x%llx is wild",
                  static_cast<unsigned long long>(ht));
    return buf;
  }
  const auto n = static_cast<std::int64_t>(
      heap.load(ht + lib.htab_t->field(0).offset, 8));
  if (n <= 0 || n > (1 << 24)) {
    std::snprintf(buf, sizeof buf, "htab nbuckets %lld implausible",
                  static_cast<long long>(n));
    return buf;
  }
  const sim::Addr barr = heap.load(ht + lib.htab_t->field(1).offset, 8);
  if (!heap.contains(barr) || barr % 8 != 0 ||
      !heap.contains(barr + static_cast<sim::Addr>(n) * 8 - 1)) {
    std::snprintf(buf, sizeof buf, "htab bucket array 0x%llx is wild",
                  static_cast<unsigned long long>(barr));
    return buf;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> local;
  auto& items = items_out != nullptr ? *items_out : local;
  for (std::int64_t i = 0; i < n; ++i) {
    const sim::Addr lp = heap.load(barr + static_cast<sim::Addr>(i) * 8, 8);
    const std::size_t first = items.size();
    const std::string err =
        host_list_validate(heap, lib.list, lp, /*require_sorted=*/true, &items);
    if (!err.empty()) {
      std::snprintf(buf, sizeof buf, "bucket %lld: %s",
                    static_cast<long long>(i), err.c_str());
      return buf;
    }
    for (std::size_t j = first; j < items.size(); ++j) {
      const std::int64_t key = items[j].first;
      if (key < 0 || key % n != i) {
        std::snprintf(buf, sizeof buf, "bucket %lld: key %lld hashes to %lld",
                      static_cast<long long>(i), static_cast<long long>(key),
                      static_cast<long long>(key < 0 ? -1 : key % n));
        return buf;
      }
    }
  }
  return "";
}

}  // namespace st::workloads::dslib
