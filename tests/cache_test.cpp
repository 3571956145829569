#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"

namespace st::sim {
namespace {

CacheGeometry tiny{4 * 64 * 2, 2};  // 4 sets x 2 ways

// Line 0 marks an empty way, so test lines start at the heap's base.
constexpr Addr kBase = 0x10000;

Addr line_in_set(unsigned set, unsigned k, unsigned sets = 4) {
  return kBase + (static_cast<Addr>(k) * sets + set) * kLineBytes;
}

TEST(L1Cache, FindMissesOnEmptyCache) {
  L1Cache c(tiny);
  EXPECT_EQ(c.find(line_in_set(0, 0)), nullptr);
}

TEST(L1Cache, VictimPrefersInvalidWay) {
  L1Cache c(tiny);
  L1Line* v = c.victim(line_in_set(1, 0));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, Coh::I);
}

TEST(L1Cache, InsertThenFind) {
  L1Cache c(tiny);
  const Addr l = line_in_set(2, 5);
  L1Line* v = c.victim(l);
  c.install(*v, l, Coh::S);
  c.touch(*v);
  EXPECT_EQ(c.find(l), v);
  EXPECT_EQ(c.find(line_in_set(2, 6)), nullptr);
}

TEST(L1Cache, VictimEvictsLruWhenSetFull) {
  L1Cache c(tiny);
  const Addr a = line_in_set(0, 1), b = line_in_set(0, 2);
  for (Addr l : {a, b}) {
    L1Line* v = c.victim(l);
    c.install(*v, l, Coh::S);
    c.touch(*v);
  }
  c.touch(*c.find(a));  // refresh a; b becomes LRU
  L1Line* v = c.victim(line_in_set(0, 3));
  EXPECT_EQ(v->line, b);
}

TEST(L1Cache, VictimPrefersNonSpeculativeOverLruSpeculative) {
  L1Cache c(tiny);
  const Addr a = line_in_set(0, 1), b = line_in_set(0, 2);
  L1Line* va = c.victim(a);
  c.install(*va, a, Coh::S);
  va->tx_read = true;  // speculative, oldest
  c.touch(*va);
  L1Line* vb = c.victim(b);
  c.install(*vb, b, Coh::S);
  c.touch(*vb);
  // b is newer but non-speculative: it must be chosen over speculative a.
  EXPECT_EQ(c.victim(line_in_set(0, 3))->line, b);
}

TEST(L1Cache, ForEachValidVisitsExactlyValidLines) {
  L1Cache c(tiny);
  for (unsigned k = 0; k < 3; ++k) {
    const Addr l = line_in_set(k % 4, k);
    L1Line* v = c.victim(l);
    c.install(*v, l, Coh::E);
    c.touch(*v);
  }
  unsigned n = 0;
  c.for_each_valid([&](L1Line&) { ++n; });
  EXPECT_EQ(n, 3u);
}

// The per-set MRU way hint is a pure lookup accelerator; these guard the
// fast path against serving stale slots.
TEST(L1Cache, MruHintSurvivesAlternatingHitsAndInvalidation) {
  L1Cache c(tiny);
  const Addr a = line_in_set(0, 1), b = line_in_set(0, 2);
  for (Addr l : {a, b}) {
    L1Line* v = c.victim(l);
    c.install(*v, l, Coh::S);
    c.touch(*v);
  }
  // Alternate hits so the hint is wrong on every other lookup.
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(c.find(a), nullptr);
    ASSERT_NE(c.find(b), nullptr);
  }
  // Invalidate the hinted (last-hit) line: the hint now points at an
  // invalid slot and must not produce a hit.
  c.invalidate(*c.find(b));
  EXPECT_EQ(c.find(b), nullptr);
  EXPECT_EQ(c.find(a)->line, a);
}

TEST(L1Cache, MruHintDoesNotResurrectEvictedLine) {
  L1Cache c(tiny);
  const Addr a = line_in_set(2, 1), b = line_in_set(2, 2),
             d = line_in_set(2, 3);
  for (Addr l : {a, b}) {
    L1Line* v = c.victim(l);
    c.install(*v, l, Coh::S);
    c.touch(*v);
  }
  c.touch(*c.find(a));            // hint -> a's way; b becomes LRU
  L1Line* v = c.victim(d);        // evicts LRU b, but the slot is reused...
  EXPECT_EQ(v->line, b);
  c.install(*v, d, Coh::E);
  c.touch(*v);
  EXPECT_EQ(c.find(b), nullptr);  // ...and must no longer answer for b
  EXPECT_EQ(c.find(d), v);
  EXPECT_EQ(c.find(a)->line, a);
}

TEST(TagCache, MissThenHit) {
  TagCache t(tiny);
  EXPECT_FALSE(t.access(0x1000));
  EXPECT_TRUE(t.access(0x1000));
  EXPECT_TRUE(t.contains(0x1000));
  EXPECT_FALSE(t.contains(0x2000));
}

TEST(TagCache, EvictsLruWithinSet) {
  TagCache t(tiny);
  const Addr a = line_in_set(1, 0), b = line_in_set(1, 1),
             c2 = line_in_set(1, 2);
  t.access(a);
  t.access(b);
  t.access(a);   // refresh a
  t.access(c2);  // evicts b
  EXPECT_TRUE(t.contains(a));
  EXPECT_FALSE(t.contains(b));
  EXPECT_TRUE(t.contains(c2));
}

TEST(TagCache, RepeatedHitsViaMruHintKeepLruExact) {
  TagCache t(tiny);
  const Addr a = line_in_set(1, 0), b = line_in_set(1, 1),
             c2 = line_in_set(1, 2);
  t.access(a);
  t.access(b);
  // Hammer b through the MRU fast path, then touch a once: b must be the more
  // recently used line regardless of which path served the hits.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(t.access(b));
  EXPECT_TRUE(t.access(a));
  EXPECT_FALSE(t.access(c2));  // must evict the true LRU: b
  EXPECT_TRUE(t.contains(a));
  EXPECT_TRUE(t.contains(c2));
  EXPECT_FALSE(t.contains(b));
}

TEST(TagCache, DifferentSetsDoNotInterfere) {
  TagCache t(tiny);
  for (unsigned k = 0; k < 8; ++k) t.access(line_in_set(0, k));
  EXPECT_FALSE(t.access(line_in_set(1, 0)));  // untouched set still misses
  EXPECT_TRUE(t.access(line_in_set(1, 0)));
}

// Seeded differential tests: the packed tag rows and blocks, the MRU hints
// and the speculative-line log against a naive per-set model with explicit
// LRU stamps and no host-side shortcut.

struct RefL1Way {
  Addr line = 0;
  bool valid = false;
  bool read = false;
  bool write = false;
  std::uint64_t stamp = 0;
  bool speculative() const { return read || write; }
};

struct RefL1 {
  unsigned sets, ways;
  std::vector<RefL1Way> w;
  std::uint64_t tick = 0;
  RefL1(unsigned s, unsigned n) : sets(s), ways(n), w(s * n) {}
  unsigned set_of(Addr line) const { return (line / kLineBytes) % sets; }
  int find(Addr line) const {
    const unsigned s = set_of(line);
    for (unsigned i = 0; i < ways; ++i)
      if (w[s * ways + i].valid && w[s * ways + i].line == line)
        return static_cast<int>(i);
    return -1;
  }
  unsigned victim(Addr line) const {
    const unsigned s = set_of(line);
    for (unsigned i = 0; i < ways; ++i)
      if (!w[s * ways + i].valid) return i;
    // LRU non-speculative way, else LRU speculative way.
    int best = -1;
    for (bool spec : {false, true}) {
      for (unsigned i = 0; i < ways; ++i) {
        const RefL1Way& x = w[s * ways + i];
        if (x.speculative() != spec) continue;
        if (best < 0 || x.stamp < w[s * ways + best].stamp)
          best = static_cast<int>(i);
      }
      if (best >= 0) break;
    }
    return static_cast<unsigned>(best);
  }
  RefL1Way& at(Addr line, unsigned way) { return w[set_of(line) * ways + way]; }
};

void l1_differential(unsigned sets, unsigned ways, std::uint64_t seed) {
  L1Cache c({sets * ways * static_cast<std::uint32_t>(kLineBytes), ways});
  RefL1 ref(sets, ways);
  Xoshiro256ss rng(seed);
  const unsigned pool = sets * ways * 3;  // three lines per way: evictions
  const L1Line* first = nullptr;
  c.for_each_slot([&](const L1Line& l) {
    if (first == nullptr) first = &l;
  });
  auto way_of = [&](const L1Line* l) {
    return static_cast<unsigned>(l - first) % ways;
  };
  unsigned hits = 0, installs = 0, drains = 0;
  for (unsigned op = 0; op < 100000; ++op) {
    const Addr line = kBase + rng.next_below(pool) * kLineBytes;
    const int rw = ref.find(line);
    L1Line* l = c.find(line);
    ASSERT_EQ(l != nullptr, rw >= 0) << "op " << op;
    if (l != nullptr) {
      ASSERT_EQ(way_of(l), static_cast<unsigned>(rw)) << "op " << op;
    }
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 40) {  // access: hit touches, miss installs
      if (l != nullptr) {
        ++hits;
        c.touch(*l);
        ref.at(line, static_cast<unsigned>(rw)).stamp = ++ref.tick;
        continue;
      }
      L1Line* v = c.victim(line);
      const unsigned rv = ref.victim(line);
      RefL1Way& r = ref.at(line, rv);
      ASSERT_EQ(way_of(v), rv) << "op " << op;
      if (r.valid && r.speculative()) continue;  // would be a capacity abort
      ++installs;
      c.install(*v, line, kind % 2 ? Coh::E : Coh::S);
      c.touch(*v);
      r = RefL1Way{line, true, false, false, ++ref.tick};
    } else if (kind < 55) {  // invalidate (a non-speculative copy)
      if (l == nullptr || l->speculative()) continue;
      RefL1Way& r = ref.at(line, static_cast<unsigned>(rw));
      c.invalidate(*l);
      r = RefL1Way{};
    } else if (kind < 95) {  // transactional mark
      if (l == nullptr) continue;
      const bool write = kind % 2 != 0;
      c.mark_speculative(*l, write);
      RefL1Way& r = ref.at(line, static_cast<unsigned>(rw));
      (write ? r.write : r.read) = true;
    } else {  // drain, as a commit or an abort that drops written lines
      ++drains;
      const bool abort = kind % 2 != 0;
      std::vector<Addr> expect;
      for (RefL1Way& r : ref.w) {
        if (!r.speculative()) continue;
        expect.push_back(r.line);
        if (abort && r.write) r.valid = false;
        r.read = r.write = false;
      }
      std::vector<Addr> got;
      c.drain_speculative([&](L1Line& x) {
        got.push_back(x.line);
        if (abort && x.tx_write) c.invalidate(x);
      });
      ASSERT_EQ(got, expect) << "op " << op;
    }
    if (op % 1024 == 0) {
      c.check_tag_rows();
      c.check_log_invariants();
    }
  }
  c.check_tag_rows();
  c.check_log_invariants();
  // Every path ran many times.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(installs, 1000u);
  EXPECT_GT(drains, 100u);
}

TEST(CacheDifferential, L1MatchesNaiveLruModel) {
  l1_differential(4, 2, 1);    // the tiny geometry above
  l1_differential(16, 8, 2);   // Table-2 associativity, one row per line
  l1_differential(8, 3, 3);    // ways not dividing a host line: padding
  l1_differential(4, 12, 4);   // a row spanning two host lines
}

void tag_differential(unsigned sets, unsigned ways, std::uint64_t seed) {
  TagCache t({sets * ways * static_cast<std::uint32_t>(kLineBytes), ways});
  struct Way {
    Addr line = 0;
    std::uint64_t stamp = 0;
  };
  std::vector<Way> ref(sets * ways);
  std::uint64_t tick = 0;
  Xoshiro256ss rng(seed);
  const unsigned pool = sets * ways * 3;
  unsigned hits = 0;
  for (unsigned op = 0; op < 100000; ++op) {
    const Addr line = kBase + rng.next_below(pool) * kLineBytes;
    Way* set = &ref[(line / kLineBytes) % sets * ways];
    Way* hit = nullptr;
    for (unsigned i = 0; i < ways; ++i)
      if (set[i].line == line) hit = &set[i];
    if (rng.next_below(4) == 0) {
      ASSERT_EQ(t.contains(line), hit != nullptr) << "op " << op;
      continue;
    }
    ASSERT_EQ(t.access(line), hit != nullptr) << "op " << op;
    if (hit != nullptr) {
      ++hits;
      hit->stamp = ++tick;
      continue;
    }
    Way* v = nullptr;
    for (unsigned i = 0; i < ways && v == nullptr; ++i)
      if (set[i].line == 0) v = &set[i];
    if (v == nullptr) {
      v = &set[0];
      for (unsigned i = 1; i < ways; ++i)
        if (set[i].stamp < v->stamp) v = &set[i];
    }
    *v = Way{line, ++tick};
  }
  // The model evicts what the cache evicted: final contents agree.
  for (const Way& w : ref) {
    if (w.line != 0) {
      EXPECT_TRUE(t.contains(w.line));
    }
  }
  EXPECT_GT(hits, 1000u);
}

TEST(CacheDifferential, TagCacheMatchesNaiveLruModel) {
  tag_differential(4, 2, 11);
  tag_differential(16, 8, 12);  // Table-2 associativity: one 64-byte block
  tag_differential(8, 3, 13);
  tag_differential(4, 12, 14);
  tag_differential(8, 1, 15);   // direct-mapped: the order is one rank
  tag_differential(4, 16, 16);  // every rank of the order; a 128-byte block
}

TEST(TagCache, MoreWaysThanTheRecencyOrderHoldsDies) {
  EXPECT_DEATH(TagCache({4 * 17 * 64, 17}), "more ways");
}

TEST(TagCache, LineIndexPastThirtyTwoBitsDies) {
  TagCache t(tiny);
  EXPECT_DEATH(t.access(Addr{1} << 40), "32-bit");
  EXPECT_DEATH(t.contains(Addr{1} << 40), "32-bit");
}

}  // namespace
}  // namespace st::sim
