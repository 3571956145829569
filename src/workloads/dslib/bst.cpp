#include "workloads/dslib/bst.hpp"

#include <cstdio>
#include <functional>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace st::workloads::dslib {

using ir::FunctionBuilder;
using ir::Reg;

BstLib build_bst_lib(ir::Module& m) {
  BstLib lib;
  if (const ir::StructType* t = m.find_type("tree")) {
    lib.tree_t = t;
    lib.tnode_t = m.find_type("tnode");
    lib.find = m.find_function("bst_find");
    lib.insert = m.find_function("bst_insert");
    lib.lookup = m.find_function("bst_lookup");
    lib.reserve = m.find_function("bst_reserve");
    lib.restore = m.find_function("bst_restore");
    return lib;
  }

  ir::StructType tnode = ir::make_struct(
      "tnode", {{"key", 0, 8, nullptr}, {"val", 0, 8, nullptr},
                {"left", 0, 8, nullptr}, {"right", 0, 8, nullptr}});
  const ir::StructType* tnode_t = m.add_type(std::move(tnode));
  auto* mut = const_cast<ir::StructType*>(tnode_t);
  mut->fields[2].pointee = tnode_t;
  mut->fields[3].pointee = tnode_t;
  const ir::StructType* tree_t =
      m.add_type(ir::make_struct("tree", {{"root", 0, 8, tnode_t}}));
  lib.tree_t = tree_t;
  lib.tnode_t = tnode_t;

  // bst_find(tree*, key) -> node*.
  {
    FunctionBuilder b(m, "bst_find", {tree_t, nullptr});
    const Reg tree = b.param(0), key = b.param(1);
    const Reg zero = b.const_i(0);
    const Reg cur = b.var(b.load_field(tree, tree_t, "root"));
    auto* head = b.new_block("head");
    auto* body = b.new_block("body");
    auto* descend = b.new_block("descend");
    auto* done = b.new_block("done");
    b.br(head);
    b.set_insert(head);
    b.cond_br(b.cmp_ne(cur, zero), body, done);
    b.set_insert(body);
    const Reg k = b.load_field(cur, tnode_t, "key");
    b.cond_br(b.cmp_eq(k, key), done, descend);
    b.set_insert(descend);
    b.if_else(
        b.cmp_slt(key, k),
        [&] { b.assign(cur, b.load_field(cur, tnode_t, "left")); },
        [&] { b.assign(cur, b.load_field(cur, tnode_t, "right")); });
    b.br(head);
    b.set_insert(done);
    b.ret(cur);
    lib.find = b.function();
  }

  // bst_insert(tree*, key, val) -> bool (false on duplicate key).
  {
    FunctionBuilder b(m, "bst_insert", {tree_t, nullptr, nullptr});
    const Reg tree = b.param(0), key = b.param(1), val = b.param(2);
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg make = b.var(zero);  // placeholder for the new node
    auto finish = [&](const std::function<void(Reg)>& attach) {
      const Reg n = b.alloc(tnode_t);
      b.store_field(n, tnode_t, "key", key);
      b.store_field(n, tnode_t, "val", val);
      b.store_field(n, tnode_t, "left", zero);
      b.store_field(n, tnode_t, "right", zero);
      b.assign(make, n);
      attach(n);
      b.ret(one);
    };
    const Reg root = b.load_field(tree, tree_t, "root");
    const Reg cur = b.var(root);
    auto* walk = b.new_block("walk");
    auto* empty = b.new_block("empty");
    b.cond_br(b.cmp_ne(root, zero), walk, empty);
    b.set_insert(empty);
    finish([&](Reg n) { b.store_field(tree, tree_t, "root", n); });
    b.set_insert(walk);
    const Reg k = b.load_field(cur, tnode_t, "key");
    auto* dup = b.new_block("dup");
    auto* descend = b.new_block("descend");
    b.cond_br(b.cmp_eq(k, key), dup, descend);
    b.set_insert(dup);
    b.ret(zero);
    b.set_insert(descend);
    auto* left = b.new_block("left");
    auto* right = b.new_block("right");
    b.cond_br(b.cmp_slt(key, k), left, right);
    b.set_insert(left);
    {
      const Reg child = b.load_field(cur, tnode_t, "left");
      auto* attach_l = b.new_block("attach.l");
      auto* go_l = b.new_block("go.l");
      b.cond_br(b.cmp_eq(child, zero), attach_l, go_l);
      b.set_insert(attach_l);
      finish([&](Reg n) { b.store_field(cur, tnode_t, "left", n); });
      b.set_insert(go_l);
      b.assign(cur, child);
      b.br(walk);
    }
    b.set_insert(right);
    {
      const Reg child = b.load_field(cur, tnode_t, "right");
      auto* attach_r = b.new_block("attach.r");
      auto* go_r = b.new_block("go.r");
      b.cond_br(b.cmp_eq(child, zero), attach_r, go_r);
      b.set_insert(attach_r);
      finish([&](Reg n) { b.store_field(cur, tnode_t, "right", n); });
      b.set_insert(go_r);
      b.assign(cur, child);
      b.br(walk);
    }
    lib.insert = b.function();
  }

  // bst_lookup(tree*, key) -> val.
  {
    FunctionBuilder b(m, "bst_lookup", {tree_t, nullptr});
    const Reg zero = b.const_i(0);
    const Reg n = b.call(lib.find, {b.param(0), b.param(1)});
    const Reg out = b.var(zero);
    b.if_(b.cmp_ne(n, zero),
          [&] { b.assign(out, b.load_field(n, lib.tnode_t, "val")); });
    b.ret(out);
    lib.lookup = b.function();
  }

  // bst_reserve(tree*, key) -> bool: decrement val when positive.
  {
    FunctionBuilder b(m, "bst_reserve", {tree_t, nullptr});
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg n = b.call(lib.find, {b.param(0), b.param(1)});
    const Reg ok = b.var(zero);
    b.if_(b.cmp_ne(n, zero), [&] {
      const Reg v = b.load_field(n, lib.tnode_t, "val");
      b.if_(b.cmp_sgt(v, zero), [&] {
        b.store_field(n, lib.tnode_t, "val", b.sub(v, one));
        b.assign(ok, one);
      });
    });
    b.ret(ok);
    lib.reserve = b.function();
  }

  // bst_restore(tree*, key) -> bool: increment val.
  {
    FunctionBuilder b(m, "bst_restore", {tree_t, nullptr});
    const Reg zero = b.const_i(0);
    const Reg one = b.const_i(1);
    const Reg n = b.call(lib.find, {b.param(0), b.param(1)});
    const Reg ok = b.var(zero);
    b.if_(b.cmp_ne(n, zero), [&] {
      const Reg v = b.load_field(n, lib.tnode_t, "val");
      b.store_field(n, lib.tnode_t, "val", b.add(v, one));
      b.assign(ok, one);
    });
    b.ret(ok);
    lib.restore = b.function();
  }
  return lib;
}

// --------------------------- host-side helpers ----------------------------

namespace {
struct Offs {
  unsigned root, key, val, left, right;
};
Offs offs(const BstLib& lib) {
  return Offs{
      lib.tree_t->fields[0].offset,  lib.tnode_t->fields[0].offset,
      lib.tnode_t->fields[1].offset, lib.tnode_t->fields[2].offset,
      lib.tnode_t->fields[3].offset,
  };
}
}  // namespace

sim::Addr host_bst_new(sim::Heap& heap, unsigned arena, const BstLib& lib) {
  return heap.alloc(arena, lib.tree_t->size);
}

void host_bst_insert(sim::Heap& heap, unsigned arena, const BstLib& lib,
                     sim::Addr tree, std::int64_t key, std::int64_t val) {
  const Offs o = offs(lib);
  const sim::Addr n = heap.alloc(arena, lib.tnode_t->size);
  heap.store(n + o.key, static_cast<std::uint64_t>(key), 8);
  heap.store(n + o.val, static_cast<std::uint64_t>(val), 8);
  sim::Addr cur = heap.load(tree + o.root, 8);
  if (cur == 0) {
    heap.store(tree + o.root, n, 8);
    return;
  }
  for (;;) {
    const auto k = static_cast<std::int64_t>(heap.load(cur + o.key, 8));
    ST_CHECK_MSG(k != key, "duplicate key in host_bst_insert");
    const unsigned off = key < k ? o.left : o.right;
    const sim::Addr child = heap.load(cur + off, 8);
    if (child == 0) {
      heap.store(cur + off, n, 8);
      return;
    }
    cur = child;
  }
}

std::int64_t host_bst_lookup(const sim::Heap& heap, const BstLib& lib,
                             sim::Addr tree, std::int64_t key) {
  const Offs o = offs(lib);
  sim::Addr cur = heap.load(tree + o.root, 8);
  while (cur != 0) {
    const auto k = static_cast<std::int64_t>(heap.load(cur + o.key, 8));
    if (k == key) return static_cast<std::int64_t>(heap.load(cur + o.val, 8));
    cur = heap.load(cur + (key < k ? o.left : o.right), 8);
  }
  return 0;
}

std::string host_bst_validate(const sim::Heap& heap, const BstLib& lib,
                              sim::Addr tree, std::int64_t* sum_out,
                              std::size_t max_nodes) {
  const Offs o = offs(lib);
  char buf[128];
  const auto node_ok = [&](sim::Addr n) {
    return heap.contains(n) && n % 8 == 0 &&
           heap.contains(n + lib.tnode_t->size - 1);
  };
  if (!heap.contains(tree) || tree % 8 != 0) {
    std::snprintf(buf, sizeof buf, "tree header 0x%llx is wild",
                  static_cast<unsigned long long>(tree));
    return buf;
  }
  std::int64_t sum = 0;
  std::vector<std::tuple<sim::Addr, std::int64_t, std::int64_t>> stack;
  const sim::Addr root = heap.load(tree + o.root, 8);
  if (root != 0) stack.emplace_back(root, INT64_MIN, INT64_MAX);
  std::size_t visited = 0;
  while (!stack.empty()) {
    auto [n, lo, hi] = stack.back();
    stack.pop_back();
    if (!node_ok(n)) {
      std::snprintf(buf, sizeof buf, "tree node %zu: wild pointer 0x%llx",
                    visited, static_cast<unsigned long long>(n));
      return buf;
    }
    if (++visited > max_nodes) {
      std::snprintf(buf, sizeof buf, "cycle or overlong tree (> %zu nodes)",
                    max_nodes);
      return buf;
    }
    const auto k = static_cast<std::int64_t>(heap.load(n + o.key, 8));
    if (!(k > lo && k < hi)) {
      std::snprintf(buf, sizeof buf,
                    "tree node %zu: BST order violated (key %lld)", visited - 1,
                    static_cast<long long>(k));
      return buf;
    }
    sum += static_cast<std::int64_t>(heap.load(n + o.val, 8));
    const sim::Addr l = heap.load(n + o.left, 8);
    const sim::Addr r = heap.load(n + o.right, 8);
    if (l != 0) stack.emplace_back(l, lo, k);
    if (r != 0) stack.emplace_back(r, k, hi);
  }
  if (sum_out != nullptr) *sum_out = sum;
  return "";
}

std::uint64_t host_bst_digest(const sim::Heap& heap, const BstLib& lib,
                              sim::Addr tree, std::uint64_t seed) {
  const Offs o = offs(lib);
  std::uint64_t d = seed;
  // Iterative in-order walk (key order ⇒ shape-independent).
  std::vector<sim::Addr> stack;
  sim::Addr cur = heap.load(tree + o.root, 8);
  while (cur != 0 || !stack.empty()) {
    while (cur != 0) {
      stack.push_back(cur);
      cur = heap.load(cur + o.left, 8);
    }
    cur = stack.back();
    stack.pop_back();
    d = mix64(d ^ heap.load(cur + o.key, 8)) +
        mix64(heap.load(cur + o.val, 8));
    cur = heap.load(cur + o.right, 8);
  }
  return d;
}

}  // namespace st::workloads::dslib
