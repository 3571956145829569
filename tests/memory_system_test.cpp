#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace st::sim {
namespace {

struct RecordingSink final : ConflictSink {
  struct Event {
    CoreId victim;
    Addr line;
    bool pc_valid;
    std::uint16_t pc_tag;
    std::uint32_t first_pc;
    CoreId requester;
  };
  std::vector<Event> events;
  MemorySystem* mem = nullptr;

  void on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                         std::uint16_t pc_tag, std::uint32_t first_pc,
                         CoreId requester, std::uint32_t) override {
    events.push_back({victim, line, pc_valid, pc_tag, first_pc, requester});
    mem->clear_speculative(victim, true);
  }
};

/// The production machine with a recording sink in place of the HTM's
/// conflict handling, and two shared lines a and b in the setup arena.
struct Fixture : testutil::MachineRig {
  RecordingSink sink;
  Addr a, b;

  explicit Fixture(const MemConfig& cfg = testutil::mem_config(4))
      : MachineRig(cfg) {
    mem.set_conflict_sink(&sink);
    sink.mem = &mem;
    a = shared_lines(1);
    b = shared_lines(1);
  }
};

TEST(MemorySystem, ColdLoadMissesThenHits) {
  Fixture f;
  const auto miss = f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  EXPECT_GE(miss.latency, f.mem.config().l3_lat);  // cold: at least L3 + memory path
  const auto hit = f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  EXPECT_EQ(hit.latency, f.mem.config().l1_lat);
  EXPECT_EQ(f.stats.core(0).l1_hits, 1u);
  EXPECT_EQ(f.stats.core(0).l1_misses, 1u);
}

TEST(MemorySystem, SoleLoaderGetsExclusive) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a))->state, Coh::E);
  EXPECT_EQ(f.mem.dir_owner(f.a), 0);
}

TEST(MemorySystem, SecondLoaderDemotesToShared) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  f.mem.access(1, f.a, 8, AccessKind::Load, false, 0);
  EXPECT_EQ(f.mem.peek_l1(1, line_addr(f.a))->state, Coh::S);
  // The former exclusive owner forwards and keeps an owner-ish copy.
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a))->state, Coh::O);
  EXPECT_EQ(f.mem.dir_sharers(f.a).low64(), 0b11u);
}

TEST(MemorySystem, StoreInvalidatesOtherSharers) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  f.mem.access(1, f.a, 8, AccessKind::Load, false, 0);
  f.mem.access(2, f.a, 8, AccessKind::Store, false, 0);
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a)), nullptr);
  EXPECT_EQ(f.mem.peek_l1(1, line_addr(f.a)), nullptr);
  EXPECT_EQ(f.mem.peek_l1(2, line_addr(f.a))->state, Coh::M);
  EXPECT_EQ(f.mem.dir_owner(f.a), 2);
  f.mem.check_invariants();
}

TEST(MemorySystem, StoreHitOnExclusiveUpgradesSilently) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, false, 0);
  const auto st = f.mem.access(0, f.a, 8, AccessKind::Store, false, 0);
  EXPECT_EQ(st.latency, f.mem.config().l1_lat);
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a))->state, Coh::M);
}

TEST(MemorySystem, TransactionalBitsAndPcTag) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, true, 0xABCDE);
  const L1Line* l = f.mem.peek_l1(0, line_addr(f.a));
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->tx_read);
  EXPECT_FALSE(l->tx_write);
  EXPECT_TRUE(l->pc_tag_valid);
  EXPECT_EQ(l->pc_tag, 0xCDEu);  // low 12 bits of 0xABCDE
  EXPECT_EQ(l->first_pc, 0xABCDEu);
}

TEST(MemorySystem, FirstPcIsNotOverwrittenBySecondAccess) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, true, 111);
  f.mem.access(0, f.a, 8, AccessKind::Store, true, 222);
  const L1Line* l = f.mem.peek_l1(0, line_addr(f.a));
  EXPECT_EQ(l->first_pc, 111u);
  EXPECT_TRUE(l->tx_write);
}

TEST(MemorySystem, RemoteStoreAbortsTransactionalReader) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, true, 77);
  f.mem.access(1, f.a, 8, AccessKind::Store, false, 0);
  ASSERT_EQ(f.sink.events.size(), 1u);
  EXPECT_EQ(f.sink.events[0].victim, 0u);
  EXPECT_EQ(f.sink.events[0].requester, 1u);
  EXPECT_EQ(f.sink.events[0].first_pc, 77u);
  // The store invalidates every remote copy, including the victim's.
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a)), nullptr);
}

TEST(MemorySystem, RemoteLoadAbortsTransactionalWriter) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Store, true, 55);
  f.mem.access(1, f.a, 8, AccessKind::Load, false, 0);
  ASSERT_EQ(f.sink.events.size(), 1u);
  EXPECT_EQ(f.sink.events[0].victim, 0u);
  // The victim's speculatively written line must be gone.
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.a)), nullptr);
  f.mem.check_invariants();
}

TEST(MemorySystem, RemoteLoadDoesNotAbortTransactionalReader) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, true, 1);
  f.mem.access(1, f.a, 8, AccessKind::Load, false, 0);
  EXPECT_TRUE(f.sink.events.empty());
}

TEST(MemorySystem, ClearSpeculativeKeepsReadLinesDropsWrittenLines) {
  Fixture f;
  f.mem.access(0, f.a, 8, AccessKind::Load, true, 1);
  f.mem.access(0, f.b, 8, AccessKind::Store, true, 2);
  f.mem.clear_speculative(0, /*invalidate_written=*/true);
  const L1Line* ra = f.mem.peek_l1(0, line_addr(f.a));
  ASSERT_NE(ra, nullptr);
  EXPECT_FALSE(ra->speculative());
  EXPECT_EQ(f.mem.peek_l1(0, line_addr(f.b)), nullptr);
  f.mem.check_invariants();
}

TEST(MemorySystem, CommitKeepsWrittenLines) {
  Fixture f;
  f.mem.access(0, f.b, 8, AccessKind::Store, true, 2);
  f.mem.clear_speculative(0, /*invalidate_written=*/false);
  const L1Line* l = f.mem.peek_l1(0, line_addr(f.b));
  ASSERT_NE(l, nullptr);
  EXPECT_FALSE(l->speculative());
  EXPECT_EQ(l->state, Coh::M);
}

TEST(MemorySystem, CapacityAbortWhenSetFullOfSpeculativeLines) {
  MemConfig cfg = testutil::mem_config(1);
  cfg.l1 = CacheGeometry{2 * 64 * 2, 2};  // 2 sets x 2 ways
  Fixture f(cfg);
  // Fill one set with two speculative lines, then touch a third.
  const Addr base = f.shared_lines(5);
  const Addr l0 = base, l1 = base + 2 * kLineBytes, l2 = base + 4 * kLineBytes;
  EXPECT_FALSE(f.mem.access(0, l0, 8, AccessKind::Load, true, 1).capacity_abort);
  EXPECT_FALSE(f.mem.access(0, l1, 8, AccessKind::Load, true, 2).capacity_abort);
  EXPECT_TRUE(f.mem.access(0, l2, 8, AccessKind::Load, true, 3).capacity_abort);
}

TEST(MemorySystem, LineCrossingAccessDies) {
  Fixture f;
  EXPECT_DEATH(f.mem.access(0, f.a + 60, 8, AccessKind::Load, false, 0),
               "crosses");
}

// Directory growth/churn regression for the open-addressed LineMap backing:
// touch far more distinct lines than the map's initial capacity (forcing
// rehashes) from several cores, with stores evicting and re-fetching lines so
// the directory sees steady erase/insert churn on long probe chains.
TEST(MemorySystem, DirectoryGrowthAndChurn) {
  Fixture f;
  Xoshiro256ss rng(99);
  constexpr unsigned kLines = 4096;  // >> the directory's initial slots
  const Addr base = f.shared_lines(kLines);
  for (unsigned i = 0; i < kLines; ++i) {
    const Addr a = base + static_cast<Addr>(i) * kLineBytes;
    const CoreId c = static_cast<CoreId>(i % 4);
    f.mem.access(c, a, 8, AccessKind::Load, false, 0);
    if (i % 512 == 0) f.mem.check_invariants();
  }
  // Random revisits: L1s are tiny relative to 4096 lines, so nearly every
  // access evicts something (directory erase) and refetches (insert).
  for (int i = 0; i < 20'000; ++i) {
    const Addr a =
        base + static_cast<Addr>(rng.next_below(kLines)) * kLineBytes;
    const CoreId c = static_cast<CoreId>(rng.next_below(4));
    const auto kind =
        rng.chance_pct(50) ? AccessKind::Store : AccessKind::Load;
    f.mem.access(c, a, 8, kind, false, 0);
    if (i % 1024 == 0) f.mem.check_invariants();
  }
  f.mem.check_invariants();
  // Spot-check that revisited lines still resolve correctly post-churn.
  for (unsigned i = 0; i < 64; ++i) {
    const Addr a = base + static_cast<Addr>(i * 64) * kLineBytes;
    f.mem.access(0, a, 8, AccessKind::Load, false, 0);
    ASSERT_NE(f.mem.peek_l1(0, line_addr(a)), nullptr);
  }
  f.mem.check_invariants();
}

/// One cache level as a naive LRU model: a stamp per way, a full scan per
/// lookup, the first empty way or else the smallest stamp as the victim.
struct RefLevel {
  struct Way {
    Addr line = 0;
    std::uint64_t stamp = 0;
  };
  std::uint32_t sets, ways;
  std::vector<Way> w;
  std::uint64_t tick = 0;

  explicit RefLevel(const CacheGeometry& g)
      : sets(g.sets()), ways(g.ways), w(sets * ways) {}

  /// Looks up `line`, filling it on a miss; returns whether it hit.
  bool access(Addr line) {
    Way* set = &w[line_index(line) % sets * ways];
    Way* v = nullptr;
    for (Way* x = set; x != set + ways; ++x) {
      if (x->line == line) {
        x->stamp = ++tick;
        return true;
      }
      if (v == nullptr && x->line == 0) v = x;
    }
    if (v == nullptr) {
      v = set;
      for (Way* x = set + 1; x != set + ways; ++x)
        if (x->stamp < v->stamp) v = x;
    }
    *v = Way{line, ++tick};
    return false;
  }
};

// Seeded load-only streams on two cores over disjoint line pools, with L1,
// L2 and L3 shrunk to a few sets and ways so every level evicts. Each load's
// latency must be what a naive per-level LRU model predicts: the only
// end-to-end check of L2/L3 replacement, since no benchmark workload fills
// an L2 or L3 set.
TEST(MemorySystemDifferential, LoadLatencyMatchesNaiveThreeLevelLru) {
  MemConfig cfg = testutil::mem_config(2);
  cfg.l1 = CacheGeometry{2 * 2 * 64, 2};  // 2 sets x 2 ways
  cfg.l2 = CacheGeometry{4 * 3 * 64, 3};  // 4 sets x 3 ways
  cfg.l3 = CacheGeometry{8 * 4 * 64, 4};  // 8 sets x 4 ways, shared
  Fixture f(cfg);
  constexpr unsigned kPool = 64;  // lines per core: twice the L3
  const Addr pool[2] = {f.shared_lines(kPool), f.shared_lines(kPool)};
  std::vector<RefLevel> l1(2, RefLevel(cfg.l1)), l2(2, RefLevel(cfg.l2));
  RefLevel l3(cfg.l3);
  // Load latency by the level that serves it: L1, L2, L3, memory.
  const Cycle lat[4] = {cfg.l1_lat, cfg.l1_lat + cfg.l2_lat,
                        cfg.l1_lat + cfg.l3_lat,
                        cfg.l1_lat + cfg.l3_lat + cfg.mem_lat};
  ASSERT_EQ(std::vector<Cycle>(lat, lat + 4),
            std::vector<Cycle>({2, 12, 32, 157}));
  Xoshiro256ss rng(2024);
  unsigned served[4] = {};  // loads per level
  for (unsigned i = 0; i < 40'000; ++i) {
    const CoreId c = static_cast<CoreId>(rng.next_below(2));
    // A skewed pick, so each level both hits and misses often.
    const std::uint64_t span = std::uint64_t{4} << (2 * rng.next_below(3));
    const Addr line = pool[c] + rng.next_below(span) * kLineBytes;
    const unsigned level = l1[c].access(line)   ? 0
                           : l2[c].access(line) ? 1
                           : l3.access(line)    ? 2
                                                : 3;
    const Cycle got =
        f.mem.access(c, line + 8, 8, AccessKind::Load, false, 0).latency;
    ASSERT_EQ(got, lat[level]) << "load " << i << " core " << c;
    ++served[level];
  }
  f.mem.check_invariants();
  for (unsigned level = 0; level < 4; ++level)
    EXPECT_GT(served[level], 2000u) << "level " << level;
}

class MemoryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryFuzz, InvariantsHoldUnderRandomTraffic) {
  Fixture f;
  const Addr base = f.shared_lines(8);
  Xoshiro256ss rng(GetParam());
  for (int i = 0; i < 4000; ++i) {
    const CoreId c = static_cast<CoreId>(rng.next_below(4));
    const Addr a = base + rng.next_below(64) * 8;
    const auto kind =
        rng.chance_pct(40) ? AccessKind::Store : AccessKind::Load;
    // Non-transactional only: transactional traffic needs an HTM to manage
    // abort state (covered by htm_test).
    f.mem.access(c, a, 8, kind, false, 0);
    if (i % 64 == 0) f.mem.check_invariants();
  }
  f.mem.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryFuzz,
                         ::testing::Values(1, 7, 42, 1337, 777777));

}  // namespace
}  // namespace st::sim
