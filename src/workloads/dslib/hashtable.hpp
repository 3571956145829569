// Fixed-size external-chaining hash table in TxIR (genome / memcached /
// intruder reassembly map). Buckets are sorted lists from dslib/list.hpp,
// reached through a pointer array — reproducing the anchor/parent chain of
// the paper's Fig. 3 (htab -> bucket array -> list -> node).
#pragma once

#include "workloads/dslib/list.hpp"

namespace st::workloads::dslib {

struct HashLib {
  const ir::StructType* htab_t = nullptr;      // { nbuckets, buckets }
  const ir::StructType* bucketarr_t = nullptr; // array of *list
  ListLib list;

  ir::Function* insert = nullptr;    // (ht, key, val) -> bool
  ir::Function* contains = nullptr;  // (ht, key) -> bool
  ir::Function* find = nullptr;      // (ht, key) -> node* (exact match or 0)
  ir::Function* update = nullptr;    // (ht, key, val) -> bool (false if absent)
  ir::Function* remove = nullptr;    // (ht, key) -> bool
};

/// Adds hash-table types/functions to `m`; builds the list library too.
HashLib build_hash_lib(ir::Module& m, unsigned nbuckets);

// --- host-side helpers ---
sim::Addr host_ht_new(sim::Heap& heap, unsigned arena, const HashLib& lib,
                      unsigned nbuckets);
void host_ht_insert(sim::Heap& heap, unsigned arena, const HashLib& lib,
                    sim::Addr ht, std::int64_t key, std::int64_t val);
/// All (key, val) pairs, bucket by bucket.
std::vector<std::pair<std::int64_t, std::int64_t>> host_ht_items(
    const sim::Heap& heap, const HashLib& lib, sim::Addr ht);
/// Bucket index the IR uses for `key`.
unsigned host_ht_bucket(const sim::Heap& heap, const HashLib& lib,
                        sim::Addr ht, std::int64_t key);
/// Non-aborting structural check (Workload::check_invariants): "" when the
/// table header and every bucket list are well-formed (sorted, no wild
/// pointers or cycles, every key hashing to its bucket), else a description
/// of the first violation. One walk: `items_out`, if set, receives what
/// host_ht_items would return (complete only when the table is valid).
std::string host_ht_validate(
    const sim::Heap& heap, const HashLib& lib, sim::Addr ht,
    std::vector<std::pair<std::int64_t, std::int64_t>>* items_out = nullptr);

}  // namespace st::workloads::dslib
