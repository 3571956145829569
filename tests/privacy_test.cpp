// Tests for the per-line privacy (ownership) tracker (sim/privacy.hpp) and
// its local-step classification: the privacy lattice (private -> shared, never
// back), arena seeding, publication-driven escapes with transitive
// reachability, the host-dispatch channel, and the end-to-end differential
// guarantee that running ahead through private-line hits never changes a
// simulated result.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sim/heap.hpp"
#include "sim/privacy.hpp"
#include "test_util.hpp"

namespace st {
namespace {

using sim::Addr;
using sim::Heap;
using sim::PrivacyMap;

/// Records escapes in place of the memory system's escape counting.
class RecordingSink final : public sim::LineEscapeSink {
 public:
  struct Rec {
    sim::CoreId publisher;
    Addr line;
    sim::CoreId owner;
    std::uint32_t pc;
  };
  std::vector<Rec> recs;
  void on_line_escape(sim::CoreId publisher, Addr line, sim::CoreId owner,
                      std::uint32_t pc) override {
    recs.push_back({publisher, line, owner, pc});
  }
};

/// A heap and its privacy map, with escapes recorded instead of counted.
struct PrivFixture {
  Heap heap;
  PrivacyMap& priv;
  RecordingSink sink;
  PrivFixture(unsigned arenas = 3, std::size_t arena_bytes = 1u << 20)
      : heap(arenas, arena_bytes), priv(heap.privacy()) {
    priv.set_sink(&sink);
  }
};

TEST(PrivacyMap, ArenaSeeding) {
  PrivFixture fx;
  const Addr a0 = fx.heap.alloc(0, 64);
  const Addr a1 = fx.heap.alloc(1, 64);
  EXPECT_EQ(fx.priv.private_owner(a0), 0);
  EXPECT_EQ(fx.priv.private_owner(a1), 1);
  EXPECT_TRUE(fx.priv.private_to(0, a0));
  EXPECT_FALSE(fx.priv.private_to(1, a0));
  EXPECT_TRUE(fx.priv.foreign_private(1, a0));
  EXPECT_FALSE(fx.priv.foreign_private(0, a0));
}

TEST(PrivacyMap, SetupArenaIsAlwaysShared) {
  PrivFixture fx;
  const Addr s = fx.heap.alloc(fx.heap.setup_arena(), 64);
  EXPECT_EQ(fx.priv.private_owner(s), -1);
  // Publishing a setup-arena pointer is a no-op (already shared).
  fx.priv.publish_value(0, s, 0);
  EXPECT_TRUE(fx.sink.recs.empty());
}

TEST(PrivacyMap, OutOfHeapValuesAreShared) {
  PrivFixture fx;
  EXPECT_EQ(fx.priv.private_owner(0), -1);
  EXPECT_EQ(fx.priv.private_owner(42), -1);  // below Heap::kBase
  fx.priv.publish_value(0, 42, 0);
  EXPECT_TRUE(fx.sink.recs.empty());
}

TEST(PrivacyMap, PublicationEscapesWholeBlockIrrevocably) {
  PrivFixture fx;
  // A 4-line block: publishing an *interior* pointer escapes all lines.
  const Addr b = fx.heap.alloc_line_aligned(0, 4 * sim::kLineBytes);
  EXPECT_EQ(fx.priv.private_owner(b), 0);
  fx.priv.publish_value(1, b + sim::kLineBytes + 8, 77);
  EXPECT_EQ(fx.sink.recs.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    const Addr line = sim::line_addr(b) + i * sim::kLineBytes;
    EXPECT_EQ(fx.priv.private_owner(line), -1);
    EXPECT_EQ(fx.sink.recs[i].line, line);
    EXPECT_EQ(fx.sink.recs[i].owner, 0u);
    EXPECT_EQ(fx.sink.recs[i].publisher, 1u);
    EXPECT_EQ(fx.sink.recs[i].pc, 77u);
  }
  // Irrevocable: a second publication of the same block is a no-op.
  fx.priv.publish_value(0, b, 0);
  EXPECT_EQ(fx.sink.recs.size(), 4u);
}

TEST(PrivacyMap, EscapeCascadesThroughStoredPointers) {
  PrivFixture fx;
  // a -> b -> c pointer chain, all private to core 0; publishing a's
  // address must escape all three blocks (b and c are reachable through
  // committed memory once a is shared).
  const Addr c = fx.heap.alloc_line_aligned(0, 64);
  const Addr b = fx.heap.alloc_line_aligned(0, 64);
  const Addr a = fx.heap.alloc_line_aligned(0, 64);
  fx.heap.store(b, c, 8);
  fx.heap.store(a, b, 8);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  EXPECT_EQ(fx.priv.private_owner(b), -1);
  EXPECT_EQ(fx.priv.private_owner(c), -1);
  EXPECT_EQ(fx.sink.recs.size(), 3u);
}

TEST(PrivacyMap, CascadeScansOnlyLiveSubBlocks) {
  PrivFixture fx;
  // Two 8-byte blocks share a line. Plant a pointer in the second, free it
  // (the heap does not zero on free), then publish the first: the cascade
  // scan must skip the dead neighbor's stale bytes — only live sub-blocks
  // hold committed, deterministic data.
  const Addr target = fx.heap.alloc_line_aligned(0, 64);
  const Addr a = fx.heap.alloc(0, 8);
  const Addr dead = fx.heap.alloc(0, 8);
  ASSERT_EQ(sim::line_addr(a), sim::line_addr(dead));  // same line
  fx.heap.store(dead, target, 8);
  fx.heap.dealloc(dead);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  EXPECT_EQ(fx.priv.private_owner(target), 0) << "stale pointer in dead "
                                                 "sub-block caused an escape";
}

TEST(PrivacyMap, ReallocationPreservesEscapeBit) {
  PrivFixture fx;
  const Addr a = fx.heap.alloc_line_aligned(0, 64);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  fx.heap.dealloc(a);
  const Addr a2 = fx.heap.alloc_line_aligned(0, 64);
  // Same size class: the free list returns the same slot, and the line
  // stays shared — privacy is a property of the line, not the block.
  EXPECT_EQ(a2, a);
  EXPECT_EQ(fx.priv.private_owner(a2), -1);
}

TEST(PrivacyMap, OversizedBlocksAreBornShared) {
  PrivFixture fx(3, 64u << 20);
  const std::size_t huge =
      (PrivacyMap::kMaxBlockLines + 1) * sim::kLineBytes;
  const Addr h = fx.heap.alloc(0, huge);
  EXPECT_EQ(fx.priv.private_owner(h), -1);
  EXPECT_EQ(fx.priv.private_owner(h + huge - 8), -1);
  EXPECT_GT(fx.sink.recs.size(), PrivacyMap::kMaxBlockLines);
}

TEST(PrivacyMap, IntegerFalsePositiveOnlyOverEscapes) {
  PrivFixture fx;
  const Addr victim = fx.heap.alloc_line_aligned(0, 64);
  // An integer that happens to equal a private address escapes the block
  // (conservative direction) but never touches unrelated blocks.
  const Addr other = fx.heap.alloc_line_aligned(0, 64);
  fx.priv.publish_value(1, victim, 0);
  EXPECT_EQ(fx.priv.private_owner(victim), -1);
  EXPECT_EQ(fx.priv.private_owner(other), 0);
}

TEST(PrivacyMap, EscapesCountInPublisherStats) {
  // The memory system is the map's escape sink: each escaped line counts
  // once, in the publisher's CoreStats::priv_escapes.
  testutil::MachineRig rig(testutil::mem_config(2));
  const Addr a = rig.heap.alloc_line_aligned(1, 2 * sim::kLineBytes);
  rig.heap.privacy().publish_value(0, a, 0);
  rig.heap.privacy().publish_value(0, 12345, 0);
  EXPECT_EQ(rig.stats.core(0).priv_escapes, 2u);
  EXPECT_EQ(rig.stats.core(1).priv_escapes, 0u);
  EXPECT_EQ(rig.stats.total().priv_escapes, 2u);
}

TEST(PrivacyMap, SecondHeapReadsAsNewOverRecycledMemory) {
  // TxSystem's arena size, at a small and the largest machine. The first
  // heap leaves escape bits behind in memory the host allocator may hand
  // out again; the second heap's map must read as new all the same.
  constexpr std::size_t kArenaBytes = 16u << 20;
  for (unsigned cores : {16u, 256u}) {
    {
      Heap first(cores + 1, kArenaBytes);
      for (unsigned c = 0; c < cores; ++c)
        first.privacy().publish_value(c, first.alloc(c, sim::kLineBytes), 0);
    }
    Heap heap(cores + 1, kArenaBytes);
    const PrivacyMap& priv = heap.privacy();
    for (unsigned c = 0; c < cores; ++c) {
      const Addr base = Heap::kBase + Addr{c} * heap.arena_stride();
      const Addr gap = base + heap.arena_bytes();
      ASSERT_EQ(priv.private_owner(base), static_cast<int>(c)) << cores;
      ASSERT_EQ(priv.private_owner(gap - sim::kLineBytes), static_cast<int>(c))
          << cores;
      ASSERT_EQ(priv.private_owner(gap), -1) << cores;
      ASSERT_EQ(priv.private_owner(base + heap.arena_stride() - 1), -1)
          << cores;
    }
    const Addr setup = Heap::kBase + Addr{cores} * heap.arena_stride();
    EXPECT_EQ(priv.private_owner(setup), -1);
    EXPECT_EQ(priv.private_owner(setup + heap.arena_bytes() - 1), -1);
    const Addr a = heap.alloc(cores - 1, sim::kLineBytes);
    EXPECT_EQ(priv.private_owner(a), static_cast<int>(cores - 1));
    heap.privacy().publish_value(0, a, 0);
    EXPECT_EQ(priv.private_owner(a), -1);
  }
}

/// The owner formula private_owner computes without a divide, written with
/// `/` and `%`, for a map with no escapes.
int reference_owner(const Heap& h, Addr a) {
  if (a < Heap::kBase) return -1;
  const Addr rel = a - Heap::kBase;
  if (rel / h.arena_stride() >= h.arena_count() - 1) return -1;
  if (rel % h.arena_stride() >= h.arena_bytes()) return -1;
  return static_cast<int>(rel / h.arena_stride());
}

TEST(PrivacyMap, OwnerMatchesTheDivisionFormula) {
  // Strides with and without a power-of-two value.
  const Heap probe(2, 1u << 16);
  const std::size_t stagger = probe.arena_stride() - probe.arena_bytes();
  const std::size_t sizes[] = {1u << 20, 1u << 16, (1u << 20) - stagger};
  for (std::size_t bytes : sizes) {
    for (unsigned arenas : {2u, 5u}) {
      PrivFixture fx(arenas, bytes);
      const Heap& h = fx.heap;
      auto check = [&](Addr a) {
        ASSERT_EQ(fx.priv.private_owner(a), reference_owner(h, a))
            << std::hex << "addr 0x" << a << " arena_bytes 0x" << bytes;
      };
      // Every line's first and last byte, from the first worker arena's
      // start through the end of the setup arena: the last worker arena,
      // every stagger gap and the setup arena included.
      const Addr end = Heap::kBase + h.total_bytes();
      const Addr last_worker = Heap::kBase + (arenas - 2) * h.arena_stride();
      for (Addr a = Heap::kBase; a < end; a += sim::kLineBytes) {
        // Whole lines of the first and last worker arenas and every gap;
        // elsewhere one line in 61.
        const Addr rel = a - Heap::kBase;
        if (rel >= h.arena_stride() && a < last_worker &&
            rel % h.arena_stride() < h.arena_bytes() &&
            (rel / sim::kLineBytes) % 61 != 0)
          continue;
        check(a);
        check(a + sim::kLineBytes - 1);
      }
      // Below the heap, past it, and up to 2^64 - 1.
      for (unsigned k = 0; k < 64; ++k) {
        check((Addr{1} << k) - 1);
        check(Addr{1} << k);
        check(Heap::kBase + (Addr{1} << k));
      }
      std::mt19937_64 rng(bytes + arenas);
      for (int i = 0; i < 10000; ++i) check(rng());
      check(~Addr{0});
      check(~Addr{0} - Heap::kBase);
    }
  }
}

// ---- end-to-end differential: run-ahead through private hits is exact ----

workloads::RunResult run_cell(const std::string& wl, bool lazy, bool fused,
                              std::uint64_t seed) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggeredSW;
  o.threads = 4;
  o.seed = seed;
  o.ops_scale = 0.05;
  o.lazy_htm = lazy;
  o.macrostep = fused;
  o.checked = true;  // record the commit log for exact comparison
  return workloads::run_workload(wl, o);
}

/// The fused run against its single-stepped reference, on every simulated
/// number (dir_probes included) and the whole commit log.
void expect_fused_matches_single_step(const std::string& wl, bool lazy,
                                      std::uint64_t seed) {
  const workloads::RunResult fused = run_cell(wl, lazy, true, seed);
  const workloads::RunResult single = run_cell(wl, lazy, false, seed);
  EXPECT_TRUE(fused.invariant_failure.empty()) << fused.invariant_failure;
  EXPECT_EQ(testutil::sim_fingerprint(fused),
            testutil::sim_fingerprint(single))
      << wl << (lazy ? " lazy" : " eager") << " seed " << seed;
}

TEST(PrivacyDifferential, FusedMatchesSingleStepAcrossModes) {
  // Eager and lazy, fused against single-stepped. list-hi has heavy shared
  // traffic, labyrinth heavy private traffic: opposite corners of the
  // classification that lets private-line hits run ahead.
  for (const char* wl : {"list-hi", "labyrinth"})
    for (bool lazy : {false, true}) expect_fused_matches_single_step(wl, lazy, 7);
}

TEST(PrivacyDifferential, RandomizedSeeds) {
  // Seed fuzz on the most allocation-heavy workload: each seed shifts the
  // op mix and the pointer graph the cascade walks.
  for (std::uint64_t seed : {11ull, 23ull, 41ull})
    expect_fused_matches_single_step("vacation", false, seed);
}

TEST(PrivacyEndToEnd, LabyrinthKeepsPrivateGridsPrivate) {
  // labyrinth's per-thread grid copies are the flagship private workload:
  // its private lines must see hits.
  const workloads::RunResult r = run_cell("labyrinth", false, true, 3);
  EXPECT_GT(r.totals.priv_hits, 0u);
}

}  // namespace
}  // namespace st
