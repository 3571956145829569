// Unbalanced binary search tree in TxIR (the vacation substitute for
// STAMP's red–black trees; random keys keep expected depth logarithmic, and
// the contention profile — read-shared upper levels, scattered leaf
// updates — matches; see DESIGN.md substitutions).
#pragma once

#include "ir/builder.hpp"
#include "sim/heap.hpp"

namespace st::workloads::dslib {

struct BstLib {
  const ir::StructType* tree_t = nullptr;   // { root }
  const ir::StructType* tnode_t = nullptr;  // { key, val, left, right }

  ir::Function* find = nullptr;    // (tree*, key) -> node* (0 if absent)
  ir::Function* insert = nullptr;  // (tree*, key, val) -> bool
  ir::Function* lookup = nullptr;  // (tree*, key) -> val (0 if absent)
  ir::Function* reserve = nullptr; // (tree*, key) -> bool: val>0 ? --val : fail
  ir::Function* restore = nullptr; // (tree*, key) -> bool: ++val
};

BstLib build_bst_lib(ir::Module& m);

// --- host-side helpers ---
sim::Addr host_bst_new(sim::Heap& heap, unsigned arena, const BstLib& lib);
void host_bst_insert(sim::Heap& heap, unsigned arena, const BstLib& lib,
                     sim::Addr tree, std::int64_t key, std::int64_t val);
std::int64_t host_bst_lookup(const sim::Heap& heap, const BstLib& lib,
                             sim::Addr tree, std::int64_t key);
/// Non-aborting structural check (Workload::check_invariants): "" when the
/// tree is a well-formed BST, else a description of the first violation.
/// Safe on corrupted state (wild pointers, cycles). When `sum_out` is
/// non-null it receives the value sum over all visited nodes.
std::string host_bst_validate(const sim::Heap& heap, const BstLib& lib,
                              sim::Addr tree, std::int64_t* sum_out = nullptr,
                              std::size_t max_nodes = 1u << 20);
/// Address-independent digest over (key, val) pairs in key order (for
/// Workload::state_digest). Call only on a tree host_bst_validate accepted.
std::uint64_t host_bst_digest(const sim::Heap& heap, const BstLib& lib,
                              sim::Addr tree, std::uint64_t seed);

}  // namespace st::workloads::dslib
