#include <gtest/gtest.h>

#include "stagger/cpc_map.hpp"
#include "test_util.hpp"

namespace st::stagger {
namespace {

struct Fixture : testutil::MachineRig {
  CpcMap map{htm, 8};

  Fixture() : MachineRig(testutil::mem_config(2), 1u << 22) {}
};

constexpr sim::Addr D = 0x300040;

TEST(CpcMap, RecordThenLookup) {
  Fixture f;
  f.map.begin_tx(0);
  f.map.record(0, D, 17);
  const auto r = f.map.lookup(0, sim::line_addr(D));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 17u);
}

TEST(CpcMap, LookupKeysOnTheLineNotTheByte) {
  Fixture f;
  f.map.begin_tx(0);
  f.map.record(0, D + 8, 21);
  EXPECT_EQ(f.map.lookup(0, D).value_or(0), 21u);  // same line
}

TEST(CpcMap, MissingLineReturnsNothing) {
  Fixture f;
  f.map.begin_tx(0);
  EXPECT_FALSE(f.map.lookup(0, D).has_value());
}

TEST(CpcMap, FirstRecordWinsWithinOneTransaction) {
  Fixture f;
  f.map.begin_tx(0);
  f.map.record(0, D, 1);
  f.map.record(0, D, 2);  // "if A was previously absent": keeps 1
  EXPECT_EQ(f.map.lookup(0, D).value_or(0), 1u);
}

TEST(CpcMap, NewTransactionInvalidatesOldEntries) {
  Fixture f;
  f.map.begin_tx(0);
  f.map.record(0, D, 5);
  f.map.begin_tx(0);
  EXPECT_FALSE(f.map.lookup(0, D).has_value());
}

TEST(CpcMap, ThreadsAreIndependent) {
  Fixture f;
  f.map.begin_tx(0);
  f.map.begin_tx(1);
  f.map.record(0, D, 7);
  EXPECT_FALSE(f.map.lookup(1, D).has_value());
  f.map.record(1, D, 9);
  EXPECT_EQ(f.map.lookup(0, D).value_or(0), 7u);
  EXPECT_EQ(f.map.lookup(1, D).value_or(0), 9u);
}

TEST(CpcMap, FirstTouchCostsMoreThanRepeatTouch) {
  Fixture f;
  f.map.begin_tx(0);
  const auto first = f.map.record(0, D, 3);
  const auto repeat = f.map.record(0, D, 3);
  EXPECT_GT(first, repeat);  // first touch pays the two stores
  EXPECT_GT(repeat, 0u);     // but the presence check is never free
}

TEST(CpcMap, CollidingLinesOverwrite) {
  Fixture f;
  f.map.begin_tx(0);
  // With only 2^8 slots, two lines 256*64 bytes apart can collide... find a
  // genuine colliding pair by probing.
  f.map.record(0, D, 11);
  sim::Addr other = 0;
  for (sim::Addr cand = D + 64; cand < D + 64 * 100000; cand += 64) {
    f.map.begin_tx(0);
    f.map.record(0, D, 11);
    f.map.record(0, cand, 22);
    if (!f.map.lookup(0, D).has_value()) {
      other = cand;
      break;
    }
  }
  ASSERT_NE(other, 0u) << "no collision found (hash too perfect?)";
  EXPECT_EQ(f.map.lookup(0, other).value_or(0), 22u);
}

}  // namespace
}  // namespace st::stagger
