// Differential tests for the per-core speculative-line log.
//
// The log is a pure host-side acceleration: every result it produces must be
// indistinguishable from a brute-force sweep of the L1 tag array (the
// pre-log implementation). These tests drive mixed eager/lazy transactional
// traffic and cross-check log against sweep after every commit and abort.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "test_util.hpp"

namespace st::sim {
namespace {

CacheGeometry tiny{4 * 64 * 2, 2};  // 4 sets x 2 ways

// Line 0 marks an empty way, so test lines start at the heap's base.
constexpr Addr kBase = 0x10000;

Addr line_in_set(unsigned set, unsigned k, unsigned sets = 4) {
  return kBase + (static_cast<Addr>(k) * sets + set) * kLineBytes;
}

L1Line* install(L1Cache& c, Addr l, Coh st = Coh::E) {
  L1Line* v = &c.install(*c.victim(l), l, st);
  c.touch(*v);
  return v;
}

TEST(SpecLog, MarkLogsFirstTouchOnly) {
  L1Cache c(tiny);
  L1Line* a = install(c, line_in_set(0, 0));
  c.mark_speculative(*a, /*write=*/false);
  EXPECT_EQ(c.speculative_line_count(), 1u);
  c.mark_speculative(*a, /*write=*/true);  // read->write upgrade: no new entry
  EXPECT_EQ(c.speculative_line_count(), 1u);
  EXPECT_TRUE(a->tx_read);
  EXPECT_TRUE(a->tx_write);
  EXPECT_EQ(c.spec_log_high_water(), 1u);
  c.check_log_invariants();
}

TEST(SpecLog, DrainVisitsInTagArraySweepOrder) {
  L1Cache c(tiny);
  // Mark in an order unrelated to slot order; the drain must visit in the
  // exact order a full set-major sweep would.
  L1Line* b = install(c, line_in_set(3, 0));
  L1Line* a = install(c, line_in_set(0, 0));
  L1Line* d = install(c, line_in_set(0, 1));
  for (L1Line* l : {b, d, a}) c.mark_speculative(*l, true);
  std::vector<Addr> sweep_order;
  c.for_each_valid([&](const L1Line& l) {
    if (l.speculative()) sweep_order.push_back(l.line);
  });
  std::vector<Addr> drain_order;
  c.drain_speculative([&](L1Line& l) { drain_order.push_back(l.line); });
  EXPECT_EQ(drain_order, sweep_order);
  EXPECT_EQ(c.speculative_line_count(), 0u);
  c.check_log_invariants();
}

TEST(SpecLog, ForEachSpeculativeOrderedMatchesSweepAndPreservesLog) {
  L1Cache c(tiny);
  L1Line* b = install(c, line_in_set(2, 1));
  L1Line* a = install(c, line_in_set(1, 0));
  c.mark_speculative(*b, true);
  c.mark_speculative(*a, false);
  std::vector<Addr> ordered;
  c.for_each_speculative(
      [&](const L1Line& l) { ordered.push_back(l.line); });
  std::vector<Addr> sweep;
  c.for_each_valid([&](const L1Line& l) {
    if (l.speculative()) sweep.push_back(l.line);
  });
  EXPECT_EQ(ordered, sweep);
  EXPECT_EQ(c.speculative_line_count(), 2u);  // non-destructive
  c.check_log_invariants();
}

struct RecordingSink final : ConflictSink {
  MemorySystem* mem = nullptr;
  unsigned aborts = 0;
  void on_conflict_abort(CoreId victim, Addr, bool, std::uint16_t,
                         std::uint32_t, CoreId, std::uint32_t) override {
    ++aborts;
    mem->clear_speculative(victim, true);
  }
};

/// The production machine with a counting sink in place of the HTM's
/// conflict handling.
struct SinkRig : testutil::MachineRig {
  RecordingSink sink;
  explicit SinkRig(const MemConfig& cfg) : MachineRig(cfg) {
    mem.set_conflict_sink(&sink);
    sink.mem = &mem;
  }
};

/// 2 sets x 2 ways on one core, so three lines can fill one set.
MemConfig tiny_l1_config() {
  MemConfig cfg = testutil::mem_config(1);
  cfg.l1 = CacheGeometry{2 * 64 * 2, 2};
  return cfg;
}

/// Brute-force sweep cross-check of everything the log accelerates.
void expect_log_matches_sweep(MemorySystem& mem, unsigned cores) {
  mem.check_invariants();  // includes per-core check_log_invariants()
  for (CoreId c = 0; c < cores; ++c) {
    unsigned spec = 0;
    std::vector<Addr> written_sweep;
    // All slots, not just valid ones: a victim stamped by a cross-core
    // abort keeps its marks (on possibly-invalidated lines) until its own
    // abort step, and the log must track exactly that.
    mem.peek_l1_cache(c).for_each_slot([&](const L1Line& l) {
      if (l.speculative()) ++spec;
      if (l.tx_write) written_sweep.push_back(l.line);
    });
    EXPECT_EQ(mem.speculative_lines(c), spec);
    std::vector<Addr> written_log;
    mem.speculative_written_lines(c, written_log);
    // Exact order match: the log walk must reproduce set-major sweep order.
    EXPECT_EQ(written_log, written_sweep);
  }
}

TEST(SpecLog, RemoteAbortClearsWholeLog) {
  SinkRig f(testutil::mem_config(2));
  MemorySystem& mem = f.mem;
  const Addr a = f.shared_lines(1), b = f.shared_lines(1);
  mem.access(0, a, 8, AccessKind::Load, true, 1);
  mem.access(0, b, 8, AccessKind::Store, true, 2);
  ASSERT_EQ(mem.speculative_lines(0), 2u);
  mem.access(1, a, 8, AccessKind::Store, false, 0);  // aborts core 0
  EXPECT_EQ(f.sink.aborts, 1u);
  EXPECT_EQ(mem.speculative_lines(0), 0u);
  expect_log_matches_sweep(mem, 2);
}

TEST(SpecLog, CapacityAbortOnFullSpeculativeSetCompactsLog) {
  SinkRig f(tiny_l1_config());
  MemorySystem& mem = f.mem;
  const Addr base = f.shared_lines(7);
  const Addr l0 = base, l1 = base + 2 * kLineBytes, l2 = base + 4 * kLineBytes;
  EXPECT_FALSE(mem.access(0, l0, 8, AccessKind::Load, true, 1).capacity_abort);
  EXPECT_FALSE(mem.access(0, l1, 8, AccessKind::Load, true, 2).capacity_abort);
  ASSERT_EQ(mem.speculative_lines(0), 2u);
  // Both ways of set 0 hold logged lines; a third line in the set must force
  // a capacity abort instead of victimizing a logged line.
  EXPECT_TRUE(mem.access(0, l2, 8, AccessKind::Load, true, 3).capacity_abort);
  EXPECT_EQ(mem.peek_l1(0, l0)->tx_read, true);  // survivors untouched
  // The HTM reacts with clear_speculative; the log must drain and compact.
  mem.clear_speculative(0, /*invalidate_written=*/true);
  EXPECT_EQ(mem.speculative_lines(0), 0u);
  expect_log_matches_sweep(mem, 1);
  // The formerly logged lines are evictable again: refilling the set with
  // fresh lines succeeds without aborts.
  EXPECT_FALSE(mem.access(0, l2, 8, AccessKind::Load, true, 4).capacity_abort);
  EXPECT_FALSE(
      mem.access(0, l2 + 2 * kLineBytes, 8, AccessKind::Load, true, 5)
          .capacity_abort);
  EXPECT_EQ(mem.speculative_lines(0), 2u);
  expect_log_matches_sweep(mem, 1);
}

TEST(SpecLog, NonSpeculativeEvictionOfFormerlyLoggedLine) {
  SinkRig f(tiny_l1_config());
  MemorySystem& mem = f.mem;
  const Addr base = f.shared_lines(5);
  const Addr l0 = base, l1 = base + 2 * kLineBytes, l2 = base + 4 * kLineBytes;
  mem.access(0, l0, 8, AccessKind::Store, true, 1);
  mem.clear_speculative(0, /*invalidate_written=*/false);  // commit
  EXPECT_EQ(mem.speculative_lines(0), 0u);
  // The committed line is ordinary now; filling its set twice over must
  // evict it without tripping any log invariant.
  mem.access(0, l1, 8, AccessKind::Load, false, 0);
  mem.access(0, l2, 8, AccessKind::Load, false, 0);
  EXPECT_EQ(mem.peek_l1(0, l0), nullptr);
  mem.check_invariants();
}

}  // namespace
}  // namespace st::sim

namespace st::htm {
namespace {

using sim::Addr;
using sim::kLineBytes;

class SpecLogFuzz : public ::testing::TestWithParam<std::tuple<bool, int>> {};

// Randomized mixed workload under both eager and lazy conflict detection:
// transactional loads/stores from every core with frequent conflict,
// capacity, and explicit aborts, cross-checking the speculative-line log
// against a brute-force L1 sweep after every commit and abort.
TEST_P(SpecLogFuzz, LogMatchesBruteForceSweepAfterEveryCommitAndAbort) {
  const bool lazy = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  sim::MemConfig cfg;
  cfg.cores = 4;
  cfg.l1 = sim::CacheGeometry{8 * 64 * 2, 2};  // 8 sets x 2 ways: tiny, so
                                               // capacity aborts are common
  cfg.lazy_conflicts = lazy;
  testutil::MachineRig rig(cfg);
  sim::MemorySystem& mem = rig.mem;
  HtmSystem& htm = rig.htm;

  // A pool of lines larger than one core's L1 (16 lines), shared by all
  // cores so cross-core conflicts are frequent.
  std::vector<Addr> pool;
  for (int i = 0; i < 48; ++i) pool.push_back(rig.shared_lines(1));

  Xoshiro256ss rng(static_cast<std::uint64_t>(seed));
  unsigned commits = 0, aborts = 0;
  for (int step = 0; step < 6000; ++step) {
    const CoreId c = static_cast<CoreId>(rng.next_below(4));
    if (!htm.active(c)) {
      htm.begin(c);
      continue;
    }
    const unsigned roll = static_cast<unsigned>(rng.next_below(100));
    if (roll < 70) {  // transactional memory op
      const Addr a = pool[rng.next_below(pool.size())];
      const bool ok = rng.chance_pct(50)
                          ? htm.load(c, a, 8, step + 1).ok
                          : htm.store(c, a, step, 8, step + 1).ok;
      if (!ok) {
        htm.abort(c);
        ++aborts;
        sim::expect_log_matches_sweep(mem, 4);
      }
    } else if (roll < 85) {  // attempt commit
      if (htm.commit(c)) {
        ++commits;
      } else {
        htm.abort(c);
        ++aborts;
      }
      sim::expect_log_matches_sweep(mem, 4);
    } else {  // explicit abort
      htm.abort(c, AbortCause::Explicit);
      ++aborts;
      sim::expect_log_matches_sweep(mem, 4);
    }
  }
  for (sim::CoreId c = 0; c < 4; ++c)
    if (htm.active(c)) htm.abort(c);
  sim::expect_log_matches_sweep(mem, 4);
  // The workload must actually have exercised both outcomes.
  EXPECT_GT(commits, 100u);
  EXPECT_GT(aborts, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    EagerAndLazy, SpecLogFuzz,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 42, 1337)));

}  // namespace
}  // namespace st::htm
