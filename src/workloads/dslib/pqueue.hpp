// Bucketed priority queue in TxIR (the tsp task queue; DESIGN.md explains
// the substitution for STAMP's B+-tree queue). Priorities map to buckets by
// a right shift; pop scans buckets from the minimum, so — like the paper's
// left-most B+-tree leaf — the head of the queue is the contention hot spot.
// There is deliberately no `size` field (the paper removed it too).
#pragma once

#include "workloads/dslib/list.hpp"

namespace st::workloads::dslib {

struct PqLib {
  const ir::StructType* pq_t = nullptr;       // { nbuckets, shift, buckets }
  const ir::StructType* pbucketarr_t = nullptr;  // array of *list
  ListLib list;

  ir::Function* push = nullptr;  // (pq, prio, val) -> 0
  ir::Function* pop = nullptr;   // (pq) -> val of a minimum-bucket task (0 = empty)
};

PqLib build_pq_lib(ir::Module& m, unsigned nbuckets);

// --- host-side helpers ---
sim::Addr host_pq_new(sim::Heap& heap, unsigned arena, const PqLib& lib,
                      unsigned nbuckets, unsigned shift);
void host_pq_push(sim::Heap& heap, unsigned arena, const PqLib& lib,
                  sim::Addr pq, std::int64_t prio, std::int64_t val);
/// host_pq_push for each (prio, val) in order, linking each bucket once
/// (host_lists_push_sorted). The queue must be empty.
void host_pq_push_all(
    sim::Heap& heap, unsigned arena, const PqLib& lib, sim::Addr pq,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& entries);
/// Non-aborting structural check (Workload::check_invariants): "" when the
/// header and every bucket list are well-formed, else the first violation.
/// Safe on corrupted state. `size_out`, if set, receives the entry count.
std::string host_pq_validate(const sim::Heap& heap, const PqLib& lib,
                             sim::Addr pq, std::size_t* size_out = nullptr);

}  // namespace st::workloads::dslib
