#include "workloads/dslib/list.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace st::workloads::dslib {

using ir::FunctionBuilder;
using ir::Reg;

ListLib build_list_lib(ir::Module& m) {
  ListLib lib;
  if (const ir::StructType* t = m.find_type("list")) {
    // Already built for this module.
    lib.list_t = t;
    lib.node_t = m.find_type("node");
    lib.find = m.find_function("list_find");
    lib.contains = m.find_function("list_contains");
    lib.insert = m.find_function("list_insert");
    lib.remove = m.find_function("list_remove");
    lib.push_front = m.find_function("list_push_front");
    lib.pop_front = m.find_function("list_pop_front");
    return lib;
  }

  // Types. `node` points to itself; `list` points to `node`.
  ir::StructType node = ir::make_struct(
      "node", {{"key", 0, 8, nullptr}, {"val", 0, 8, nullptr},
               {"next", 0, 8, nullptr}});
  const ir::StructType* node_t = m.add_type(std::move(node));
  const_cast<ir::StructType*>(node_t)->fields[2].pointee = node_t;
  ir::StructType list =
      ir::make_struct("list", {{"head", 0, 8, node_t}});
  const ir::StructType* list_t = m.add_type(std::move(list));
  lib.list_t = list_t;
  lib.node_t = node_t;

  // list_find(list*, key) -> first node with node.key >= key (or 0).
  {
    FunctionBuilder b(m, "list_find", {list_t, nullptr});
    const Reg list = b.param(0), key = b.param(1);
    const Reg zero = b.const_i(0);
    const Reg cur = b.var(b.load_field(list, list_t, "head"));
    auto* head = b.new_block("head");
    auto* body = b.new_block("body");
    auto* adv = b.new_block("adv");
    auto* done = b.new_block("done");
    b.br(head);
    b.set_insert(head);
    b.cond_br(b.cmp_ne(cur, zero), body, done);
    b.set_insert(body);
    const Reg k = b.load_field(cur, node_t, "key");
    b.cond_br(b.cmp_slt(k, key), adv, done);
    b.set_insert(adv);
    b.assign(cur, b.load_field(cur, node_t, "next"));
    b.br(head);
    b.set_insert(done);
    b.ret(cur);
    lib.find = b.function();
  }

  // list_contains(list*, key) -> bool.
  {
    FunctionBuilder b(m, "list_contains", {list_t, nullptr});
    const Reg list = b.param(0), key = b.param(1);
    const Reg zero = b.const_i(0);
    const Reg n = b.call(lib.find, {list, key});
    const Reg found = b.var(zero);
    b.if_(b.cmp_ne(n, zero), [&] {
      const Reg k = b.load_field(n, lib.node_t, "key");
      b.assign(found, b.cmp_eq(k, key));
    });
    b.ret(found);
    lib.contains = b.function();
  }

  // list_insert(list*, key, val) -> bool (sorted; false on duplicate).
  {
    FunctionBuilder b(m, "list_insert", {list_t, nullptr, nullptr});
    const Reg list = b.param(0), key = b.param(1), val = b.param(2);
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg prev = b.var(zero);
    const Reg cur = b.var(b.load_field(list, list_t, "head"));
    auto* head = b.new_block("head");
    auto* body = b.new_block("body");
    auto* cmp2 = b.new_block("cmp2");
    auto* dup = b.new_block("dup");
    auto* adv = b.new_block("adv");
    auto* place = b.new_block("place");
    b.br(head);
    b.set_insert(head);
    b.cond_br(b.cmp_ne(cur, zero), body, place);
    b.set_insert(body);
    const Reg k = b.load_field(cur, node_t, "key");
    b.cond_br(b.cmp_slt(k, key), adv, cmp2);
    b.set_insert(cmp2);
    b.cond_br(b.cmp_eq(k, key), dup, place);
    b.set_insert(dup);
    b.ret(zero);
    b.set_insert(adv);
    b.assign(prev, cur);
    b.assign(cur, b.load_field(cur, node_t, "next"));
    b.br(head);
    b.set_insert(place);
    const Reg n = b.alloc(node_t);
    b.store_field(n, node_t, "key", key);
    b.store_field(n, node_t, "val", val);
    b.store_field(n, node_t, "next", cur);
    b.if_else(
        b.cmp_eq(prev, zero),
        [&] { b.store_field(list, list_t, "head", n); },
        [&] { b.store_field(prev, node_t, "next", n); });
    b.ret(one);
    lib.insert = b.function();
  }

  // list_remove(list*, key) -> bool.
  {
    FunctionBuilder b(m, "list_remove", {list_t, nullptr});
    const Reg list = b.param(0), key = b.param(1);
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg prev = b.var(zero);
    const Reg cur = b.var(b.load_field(list, list_t, "head"));
    auto* head = b.new_block("head");
    auto* body = b.new_block("body");
    auto* cmp2 = b.new_block("cmp2");
    auto* miss = b.new_block("miss");
    auto* adv = b.new_block("adv");
    auto* unlink = b.new_block("unlink");
    b.br(head);
    b.set_insert(head);
    b.cond_br(b.cmp_ne(cur, zero), body, miss);
    b.set_insert(body);
    const Reg k = b.load_field(cur, node_t, "key");
    b.cond_br(b.cmp_slt(k, key), adv, cmp2);
    b.set_insert(cmp2);
    b.cond_br(b.cmp_eq(k, key), unlink, miss);
    b.set_insert(miss);
    b.ret(zero);
    b.set_insert(adv);
    b.assign(prev, cur);
    b.assign(cur, b.load_field(cur, node_t, "next"));
    b.br(head);
    b.set_insert(unlink);
    const Reg nxt = b.load_field(cur, node_t, "next");
    b.if_else(
        b.cmp_eq(prev, zero),
        [&] { b.store_field(list, list_t, "head", nxt); },
        [&] { b.store_field(prev, node_t, "next", nxt); });
    b.free_(cur);
    b.ret(one);
    lib.remove = b.function();
  }

  // list_push_front(list*, key, val) -> 0.
  {
    FunctionBuilder b(m, "list_push_front", {list_t, nullptr, nullptr});
    const Reg list = b.param(0), key = b.param(1), val = b.param(2);
    const Reg h = b.load_field(list, list_t, "head");
    const Reg n = b.alloc(node_t);
    b.store_field(n, node_t, "key", key);
    b.store_field(n, node_t, "val", val);
    b.store_field(n, node_t, "next", h);
    b.store_field(list, list_t, "head", n);
    b.ret(b.const_i(0));
    lib.push_front = b.function();
  }

  // list_pop_front(list*) -> val (0 when empty; payloads must be nonzero).
  {
    FunctionBuilder b(m, "list_pop_front", {list_t});
    const Reg list = b.param(0);
    const Reg zero = b.const_i(0);
    const Reg h = b.load_field(list, list_t, "head");
    const Reg out = b.var(zero);
    b.if_(b.cmp_ne(h, zero), [&] {
      const Reg nxt = b.load_field(h, node_t, "next");
      b.store_field(list, list_t, "head", nxt);
      b.assign(out, b.load_field(h, node_t, "val"));
      b.free_(h);
    });
    b.ret(out);
    lib.pop_front = b.function();
  }

  return lib;
}

// --------------------------- host-side helpers ----------------------------

namespace {
struct Offs {
  unsigned head, key, val, next;
};
Offs offs(const ListLib& lib) {
  return Offs{
      lib.list_t->fields[lib.list_t->field_index("head")].offset,
      lib.node_t->fields[lib.node_t->field_index("key")].offset,
      lib.node_t->fields[lib.node_t->field_index("val")].offset,
      lib.node_t->fields[lib.node_t->field_index("next")].offset,
  };
}
}  // namespace

sim::Addr host_list_new(sim::Heap& heap, unsigned arena, const ListLib& lib) {
  return heap.alloc(arena, lib.list_t->size);
}

void host_list_push_sorted(sim::Heap& heap, unsigned arena,
                           const ListLib& lib, sim::Addr list,
                           std::int64_t key, std::int64_t val) {
  const Offs o = offs(lib);
  const sim::Addr n = heap.alloc(arena, lib.node_t->size);
  heap.store(n + o.key, static_cast<std::uint64_t>(key), 8);
  heap.store(n + o.val, static_cast<std::uint64_t>(val), 8);
  sim::Addr prev = 0;
  sim::Addr cur = heap.load(list + o.head, 8);
  while (cur != 0 &&
         static_cast<std::int64_t>(heap.load(cur + o.key, 8)) < key) {
    prev = cur;
    cur = heap.load(cur + o.next, 8);
  }
  heap.store(n + o.next, cur, 8);
  if (prev == 0)
    heap.store(list + o.head, n, 8);
  else
    heap.store(prev + o.next, n, 8);
}

void host_lists_push_sorted(sim::Heap& heap, unsigned arena,
                            const ListLib& lib,
                            const std::vector<SortedPush>& pushes) {
  const Offs o = offs(lib);
  struct Link {
    sim::Addr list;
    std::int64_t key;
    std::size_t age;
    sim::Addr node;
  };
  std::vector<Link> links(pushes.size());
  for (std::size_t i = 0; i < pushes.size(); ++i) {
    const SortedPush& p = pushes[i];
    const sim::Addr n = heap.alloc(arena, lib.node_t->size);
    heap.store(n + o.key, static_cast<std::uint64_t>(p.key), 8);
    heap.store(n + o.val, static_cast<std::uint64_t>(p.val), 8);
    links[i] = {p.list, p.key, i, n};
  }
  std::sort(links.begin(), links.end(), [](const Link& x, const Link& y) {
    if (x.list != y.list) return x.list < y.list;
    if (x.key != y.key) return x.key < y.key;
    return x.age > y.age;  // newest first
  });
  // A fresh node's next is already 0, so each list's last node is done.
  sim::Addr list = 0;
  sim::Addr prev = 0;
  for (const Link& l : links) {
    if (l.list != list) {
      list = l.list;
      ST_CHECK_MSG(heap.load(list + o.head, 8) == 0,
                   "host_lists_push_sorted: lists must start empty");
      heap.store(list + o.head, l.node, 8);
    } else {
      heap.store(prev + o.next, l.node, 8);
    }
    prev = l.node;
  }
}

sim::Addr host_list_append(sim::Heap& heap, unsigned arena,
                           const ListLib& lib, sim::Addr list, sim::Addr tail,
                           std::int64_t key, std::int64_t val) {
  const Offs o = offs(lib);
  if (tail == 0) {
    ST_CHECK_MSG(heap.load(list + o.head, 8) == 0,
                 "host_list_append: no tail given for a non-empty list");
  } else {
    ST_CHECK_MSG(static_cast<std::int64_t>(heap.load(tail + o.key, 8)) < key,
                 "host_list_append: keys must be strictly ascending");
  }
  const sim::Addr n = heap.alloc(arena, lib.node_t->size);
  heap.store(n + o.key, static_cast<std::uint64_t>(key), 8);
  heap.store(n + o.val, static_cast<std::uint64_t>(val), 8);
  heap.store(n + o.next, 0, 8);
  heap.store(tail == 0 ? list + o.head : tail + o.next, n, 8);
  return n;
}

std::vector<std::pair<std::int64_t, std::int64_t>> host_list_items(
    const sim::Heap& heap, const ListLib& lib, sim::Addr list) {
  const Offs o = offs(lib);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (sim::Addr cur = heap.load(list + o.head, 8); cur != 0;
       cur = heap.load(cur + o.next, 8)) {
    out.emplace_back(static_cast<std::int64_t>(heap.load(cur + o.key, 8)),
                     static_cast<std::int64_t>(heap.load(cur + o.val, 8)));
    ST_CHECK_MSG(out.size() < 10'000'000, "list cycle detected");
  }
  return out;
}

std::string host_list_validate(
    const sim::Heap& heap, const ListLib& lib, sim::Addr list,
    bool require_sorted,
    std::vector<std::pair<std::int64_t, std::int64_t>>* items_out,
    std::size_t max_nodes) {
  const Offs o = offs(lib);
  char buf[128];
  const auto node_ok = [&](sim::Addr n) {
    return heap.contains(n) && n % 8 == 0 &&
           heap.contains(n + lib.node_t->size - 1);
  };
  if (!heap.contains(list) || list % 8 != 0) {
    std::snprintf(buf, sizeof buf, "list header 0x%llx is wild",
                  static_cast<unsigned long long>(list));
    return buf;
  }
  std::int64_t prev_key = 0;
  std::size_t n = 0;
  for (sim::Addr cur = heap.load(list + o.head, 8); cur != 0; ++n) {
    if (!node_ok(cur)) {
      std::snprintf(buf, sizeof buf, "node %zu: wild pointer 0x%llx", n,
                    static_cast<unsigned long long>(cur));
      return buf;
    }
    if (n >= max_nodes) {
      std::snprintf(buf, sizeof buf, "cycle or overlong list (> %zu nodes)",
                    max_nodes);
      return buf;
    }
    const auto key = static_cast<std::int64_t>(heap.load(cur + o.key, 8));
    if (require_sorted && n > 0 && key <= prev_key) {
      std::snprintf(buf, sizeof buf,
                    "node %zu: key order violated (%lld after %lld)", n,
                    static_cast<long long>(key),
                    static_cast<long long>(prev_key));
      return buf;
    }
    if (items_out != nullptr)
      items_out->emplace_back(
          key, static_cast<std::int64_t>(heap.load(cur + o.val, 8)));
    prev_key = key;
    cur = heap.load(cur + o.next, 8);
  }
  return "";
}

}  // namespace st::workloads::dslib
