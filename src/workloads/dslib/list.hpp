// Sorted singly-linked list (IntSet) and LIFO front-ops, in TxIR.
//
// The same library serves the list microbenchmarks, hash-table buckets
// (genome/memcached/intruder) and priority-queue buckets (tsp) — call-site
// cloning in the bottom-up DSA stage keeps each use context-sensitive.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "sim/heap.hpp"

namespace st::workloads::dslib {

struct ListLib {
  const ir::StructType* list_t = nullptr;  // { head: *node }
  const ir::StructType* node_t = nullptr;  // { key, val, next: *node }

  ir::Function* find = nullptr;     // (list*, key) -> node* with node.key >= key, else 0
  ir::Function* contains = nullptr; // (list*, key) -> bool
  ir::Function* insert = nullptr;   // (list*, key, val) -> bool (false if present)
  ir::Function* remove = nullptr;   // (list*, key) -> bool
  ir::Function* push_front = nullptr;  // (list*, key, val) -> 0
  ir::Function* pop_front = nullptr;   // (list*) -> val (0 when empty)
};

/// Adds the list types and functions to `m` (idempotent per module).
ListLib build_list_lib(ir::Module& m);

// --- host-side helpers (setup/verification; no simulated cycles) ---
sim::Addr host_list_new(sim::Heap& heap, unsigned arena, const ListLib& lib);
void host_list_push_sorted(sim::Heap& heap, unsigned arena, const ListLib& lib,
                           sim::Addr list, std::int64_t key, std::int64_t val);
/// One host_list_push_sorted call, for host_lists_push_sorted.
struct SortedPush {
  sim::Addr list;
  std::int64_t key;
  std::int64_t val;
};
/// host_list_push_sorted for each push in order, without its walk from the
/// head per push: allocates and fills the nodes in push order, then links
/// each list once, by key with equal keys newest first (where the per-push
/// walk leaves them). The heap image is the same. Lists must start empty.
void host_lists_push_sorted(sim::Heap& heap, unsigned arena,
                            const ListLib& lib,
                            const std::vector<SortedPush>& pushes);
/// Links a new node after `tail` (0: `list` must be empty) and returns it,
/// so a caller with strictly ascending keys builds a sorted list in one
/// pass — the same heap image host_list_push_sorted leaves, without its
/// walk from the head per insert.
sim::Addr host_list_append(sim::Heap& heap, unsigned arena, const ListLib& lib,
                           sim::Addr list, sim::Addr tail, std::int64_t key,
                           std::int64_t val);
std::vector<std::pair<std::int64_t, std::int64_t>> host_list_items(
    const sim::Heap& heap, const ListLib& lib, sim::Addr list);
/// Non-aborting structural check for the correctness checker
/// (Workload::check_invariants): returns "" when the list is well-formed,
/// else a description of the first violation. Safe on corrupted state —
/// wild pointers and cycles are reported, never chased past `max_nodes`.
/// `items_out`, if set, receives each visited (key, val) pair appended in
/// list order — host_list_items without a second walk.
std::string host_list_validate(
    const sim::Heap& heap, const ListLib& lib, sim::Addr list,
    bool require_sorted,
    std::vector<std::pair<std::int64_t, std::int64_t>>* items_out = nullptr,
    std::size_t max_nodes = 1u << 20);

}  // namespace st::workloads::dslib
