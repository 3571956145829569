// Functional correctness of the TxIR data-structure library, executed
// through the full simulator stack (single core: no conflicts, pure
// semantics).
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workloads/dslib/bst.hpp"
#include "workloads/dslib/hashtable.hpp"
#include "workloads/dslib/pqueue.hpp"

namespace st::workloads::dslib {
namespace {

using testutil::MiniSystem;

struct ListFixture {
  MiniSystem ms;
  ListLib lib;
  sim::Addr list = 0;

  ListFixture() {
    lib = build_list_lib(ms.module);
    ms.module.add_atomic_block(lib.contains);   // ab 0
    ms.module.add_atomic_block(lib.insert);     // ab 1
    ms.module.add_atomic_block(lib.remove);     // ab 2
    ms.module.add_atomic_block(lib.push_front); // ab 3
    ms.module.add_atomic_block(lib.pop_front);  // ab 4
    ms.module.add_atomic_block(lib.find);       // ab 5
    ms.boot();
    list = host_list_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  }
};

TEST(List, InsertContainsRemoveRoundTrip) {
  ListFixture f;
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 0u);
  EXPECT_EQ(f.ms.run_ab(1, {f.list, 5, 50}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.list, 5, 50}), 0u);  // duplicate rejected
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 0u);
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 0u);  // remove of absent key
}

TEST(List, StaysSortedUnderRandomOps) {
  ListFixture f;
  Xoshiro256ss rng(3);
  std::set<std::uint64_t> model;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t k = rng.next_range(1, 40);
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(f.ms.run_ab(0, {f.list, k}), model.count(k));
        break;
      case 1:
        EXPECT_EQ(f.ms.run_ab(1, {f.list, k, k}), model.insert(k).second);
        break;
      default:
        EXPECT_EQ(f.ms.run_ab(2, {f.list, k}), model.erase(k));
        break;
    }
    if (i % 50 == 0) {
      EXPECT_EQ(host_list_validate(f.ms.sys->heap(), f.lib, f.list,
                                   /*require_sorted=*/true),
                "");
      EXPECT_EQ(host_list_items(f.ms.sys->heap(), f.lib, f.list).size(),
                model.size());
    }
  }
  const auto items = host_list_items(f.ms.sys->heap(), f.lib, f.list);
  ASSERT_EQ(items.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : items) {
    EXPECT_EQ(static_cast<std::uint64_t>(k), *it++);
    EXPECT_EQ(k, v);
  }
}

TEST(List, BoundaryInsertionsFrontAndBack) {
  ListFixture f;
  f.ms.run_ab(1, {f.list, 10, 10});
  f.ms.run_ab(1, {f.list, 5, 5});   // new head
  f.ms.run_ab(1, {f.list, 20, 20}); // new tail
  const auto items = host_list_items(f.ms.sys->heap(), f.lib, f.list);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 5);
  EXPECT_EQ(items[2].first, 20);
  // Remove head and tail.
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 20}), 1u);
  EXPECT_EQ(host_list_validate(f.ms.sys->heap(), f.lib, f.list,
                               /*require_sorted=*/true),
            "");
  EXPECT_EQ(host_list_items(f.ms.sys->heap(), f.lib, f.list).size(), 1u);
}

TEST(List, PushPopFrontBehavesLikeAStack) {
  ListFixture f;
  f.ms.run_ab(3, {f.list, 1, 11});
  f.ms.run_ab(3, {f.list, 2, 22});
  f.ms.run_ab(3, {f.list, 3, 33});
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 33u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 22u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 11u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 0u);  // empty
}

TEST(List, FindReturnsFirstNodeWithGeKey) {
  ListFixture f;
  f.ms.run_ab(1, {f.list, 10, 10});
  f.ms.run_ab(1, {f.list, 30, 30});
  const auto n = f.ms.run_ab(5, {f.list, 20});
  ASSERT_NE(n, 0u);
  // The node found must hold key 30.
  EXPECT_EQ(f.ms.sys->heap().load(
                n + f.lib.node_t->fields[f.lib.node_t->field_index("key")]
                        .offset,
                8),
            30u);
  EXPECT_EQ(f.ms.run_ab(5, {f.list, 31}), 0u);  // past the end
}

TEST(List, RemoveFreesNodes) {
  ListFixture f;
  const auto live0 = f.ms.sys->heap().live_blocks();
  f.ms.run_ab(1, {f.list, 5, 5});
  EXPECT_EQ(f.ms.sys->heap().live_blocks(), live0 + 1);
  f.ms.run_ab(2, {f.list, 5});
  EXPECT_EQ(f.ms.sys->heap().live_blocks(), live0);
}

struct HashFixture {
  MiniSystem ms;
  HashLib lib;
  sim::Addr ht = 0;

  HashFixture() {
    lib = build_hash_lib(ms.module, 8);
    ms.module.add_atomic_block(lib.contains);  // 0
    ms.module.add_atomic_block(lib.insert);    // 1
    ms.module.add_atomic_block(lib.update);    // 2
    ms.module.add_atomic_block(lib.find);      // 3
    ms.module.add_atomic_block(lib.remove);    // 4
    ms.boot();
    ht = host_ht_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib, 8);
  }
};

TEST(HashTable, InsertLookupAcrossBuckets) {
  HashFixture f;
  for (std::uint64_t k = 1; k <= 40; ++k)
    EXPECT_EQ(f.ms.run_ab(1, {f.ht, k, k * 10}), 1u);
  for (std::uint64_t k = 1; k <= 40; ++k)
    EXPECT_EQ(f.ms.run_ab(0, {f.ht, k}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 99}), 0u);
  EXPECT_EQ(host_ht_items(f.ms.sys->heap(), f.lib, f.ht).size(), 40u);
}

TEST(HashTable, UpdateChangesValueOnlyWhenPresent) {
  HashFixture f;
  EXPECT_EQ(f.ms.run_ab(2, {f.ht, 7, 1}), 0u);  // absent
  f.ms.run_ab(1, {f.ht, 7, 1});
  EXPECT_EQ(f.ms.run_ab(2, {f.ht, 7, 2}), 1u);
  const auto items = host_ht_items(f.ms.sys->heap(), f.lib, f.ht);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].second, 2);
}

TEST(HashTable, RemoveDeletesExactKey) {
  HashFixture f;
  // Keys 3 and 11 share bucket 3 (mod 8).
  f.ms.run_ab(1, {f.ht, 3, 3});
  f.ms.run_ab(1, {f.ht, 11, 11});
  EXPECT_EQ(f.ms.run_ab(4, {f.ht, 3}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 3}), 0u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 11}), 1u);
}

TEST(HashTable, FindReturnsExactMatchOnly) {
  HashFixture f;
  f.ms.run_ab(1, {f.ht, 16, 160});  // bucket 0
  EXPECT_NE(f.ms.run_ab(3, {f.ht, 16}), 0u);
  EXPECT_EQ(f.ms.run_ab(3, {f.ht, 8}), 0u);  // same bucket, different key
}

struct BstFixture {
  MiniSystem ms;
  BstLib lib;
  sim::Addr tree = 0;

  BstFixture() {
    lib = build_bst_lib(ms.module);
    ms.module.add_atomic_block(lib.lookup);   // 0
    ms.module.add_atomic_block(lib.insert);   // 1
    ms.module.add_atomic_block(lib.reserve);  // 2
    ms.module.add_atomic_block(lib.restore);  // 3
    ms.boot();
    tree = host_bst_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  }
};

TEST(Bst, InsertAndLookup) {
  BstFixture f;
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 50, 500}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 25, 250}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 75, 750}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 50, 1}), 0u);  // duplicate
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 25}), 250u);
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 75}), 750u);
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 60}), 0u);
  std::int64_t sum = 0;
  EXPECT_EQ(host_bst_validate(f.ms.sys->heap(), f.lib, f.tree, &sum), "");
  EXPECT_EQ(sum, 1500);
}

TEST(Bst, ReserveDecrementsUntilZeroRestoreGivesBack) {
  BstFixture f;
  f.ms.run_ab(1, {f.tree, 5, 2});
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 0u);  // exhausted
  EXPECT_EQ(f.ms.run_ab(3, {f.tree, 5}), 1u);  // cancel returns capacity
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 99}), 0u);  // absent key
}

TEST(Bst, AgreesWithModelUnderRandomInserts) {
  BstFixture f;
  Xoshiro256ss rng(11);
  std::map<std::uint64_t, std::uint64_t> model;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.next_range(1, 100);
    const std::uint64_t v = rng.next_range(1, 1000);
    const bool fresh = model.emplace(k, v).second;
    EXPECT_EQ(f.ms.run_ab(1, {f.tree, k, v}), fresh ? 1u : 0u);
  }
  std::int64_t want = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(f.ms.run_ab(0, {f.tree, k}), v);
    want += static_cast<std::int64_t>(v);
  }
  std::int64_t sum = 0;
  EXPECT_EQ(host_bst_validate(f.ms.sys->heap(), f.lib, f.tree, &sum), "");
  EXPECT_EQ(sum, want);
}

struct PqFixture {
  MiniSystem ms;
  PqLib lib;
  sim::Addr pq = 0;

  PqFixture() {
    lib = build_pq_lib(ms.module, 8);
    ms.module.add_atomic_block(lib.push);  // 0
    ms.module.add_atomic_block(lib.pop);   // 1
    ms.boot();
    // shift 4: priorities 0..127 map to buckets 0..7.
    pq = host_pq_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib, 8, 4);
  }

  std::size_t size() {
    std::size_t n = 0;
    EXPECT_EQ(host_pq_validate(ms.sys->heap(), lib, pq, &n), "");
    return n;
  }
};

TEST(PQueue, PopsFromTheMinimumBucketFirst) {
  PqFixture f;
  f.ms.run_ab(0, {f.pq, 100, 1001});  // bucket 6
  f.ms.run_ab(0, {f.pq, 5, 1002});    // bucket 0
  f.ms.run_ab(0, {f.pq, 40, 1003});   // bucket 2
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1002u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1003u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1001u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 0u);  // drained
}

TEST(PQueue, OverflowPrioritiesClampToLastBucket) {
  PqFixture f;
  f.ms.run_ab(0, {f.pq, 5000, 7u});
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 7u);
}

TEST(PQueue, ConservesEntries) {
  PqFixture f;
  Xoshiro256ss rng(4);
  std::size_t pushed = 0, popped = 0;
  for (int i = 0; i < 200; ++i) {
    if (rng.chance_pct(60)) {
      f.ms.run_ab(0, {f.pq, rng.next_below(128), rng.next_range(1, 1u << 20)});
      ++pushed;
    } else if (f.ms.run_ab(1, {f.pq}) != 0) {
      ++popped;
    }
  }
  EXPECT_EQ(f.size(), pushed - popped);
}

TEST(PQueue, HostAndIrPushesInteroperate) {
  PqFixture f;
  host_pq_push(f.ms.sys->heap(), f.ms.sys->heap().setup_arena(), f.lib, f.pq,
               3, 42);
  f.ms.run_ab(0, {f.pq, 90, 43});
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 42u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 43u);
}

// ---- bulk setup: host_lists_push_sorted leaves the per-push heap image ----

using Entries = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Builds a structure in a fresh heap with `build`, then returns every
/// 8-byte word of its setup arena up to a sentinel allocated after it. Equal
/// results mean the same allocations in the same order (the sentinel's
/// address is the last word) and the same bytes, node links included.
template <typename Build>
std::vector<std::uint64_t> setup_image(Build build) {
  sim::Heap heap(2, 1u << 20);
  const unsigned arena = heap.setup_arena();
  build(heap, arena);
  const sim::Addr sentinel = heap.alloc(arena, 8);
  std::vector<std::uint64_t> words;
  for (sim::Addr a = sim::Heap::kBase + heap.arena_stride(); a < sentinel;
       a += 8)
    words.push_back(heap.load(a, 8));
  words.push_back(sentinel);
  return words;
}

TEST(BulkSetup, PriorityQueueWithDuplicatePrioritiesMatchesPerPush) {
  // tsp's geometry: 64 buckets, shift 4, priorities past the last bucket
  // clamped into it, and many equal priorities per bucket.
  ir::Module m;
  const PqLib lib = build_pq_lib(m, 64);
  Xoshiro256ss rng(11);
  Entries tasks;
  for (std::int64_t i = 1; i <= 3000; ++i)
    tasks.emplace_back(static_cast<std::int64_t>(rng.next_below(1100)), i);
  sim::Addr pq_one = 0;
  sim::Addr pq_bulk = 0;
  std::size_t n = 0;
  const auto one = setup_image([&](sim::Heap& heap, unsigned arena) {
    pq_one = host_pq_new(heap, arena, lib, 64, 4);
    for (const auto& [prio, val] : tasks)
      host_pq_push(heap, arena, lib, pq_one, prio, val);
  });
  const auto bulk = setup_image([&](sim::Heap& heap, unsigned arena) {
    pq_bulk = host_pq_new(heap, arena, lib, 64, 4);
    host_pq_push_all(heap, arena, lib, pq_bulk, tasks);
    EXPECT_EQ(host_pq_validate(heap, lib, pq_bulk, &n), "");
  });
  EXPECT_EQ(pq_one, pq_bulk);
  EXPECT_EQ(n, tasks.size());
  EXPECT_TRUE(one == bulk);
}

}  // namespace
}  // namespace st::workloads::dslib
