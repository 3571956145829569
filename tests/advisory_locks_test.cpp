#include <gtest/gtest.h>

#include <map>

#include "stagger/advisory_locks.hpp"
#include "test_util.hpp"

namespace st::stagger {
namespace {

struct Fixture : testutil::MachineRig {
  AdvisoryLockTable locks;

  explicit Fixture(unsigned nlocks = 8)
      : MachineRig(testutil::mem_config(4)), locks(htm, nlocks) {}
};

TEST(AdvisoryLocks, AcquireAndRelease) {
  Fixture f;
  const auto r = f.locks.try_acquire(0, 0x123400);
  EXPECT_TRUE(r.acquired);
  EXPECT_TRUE(f.locks.holds_lock(0));
  f.locks.release(0);
  EXPECT_FALSE(f.locks.holds_lock(0));
}

TEST(AdvisoryLocks, SecondCoreBlocksOnSameAddress) {
  Fixture f;
  EXPECT_TRUE(f.locks.try_acquire(0, 0x123400).acquired);
  EXPECT_FALSE(f.locks.try_acquire(1, 0x123400).acquired);
  f.locks.release(0);
  EXPECT_TRUE(f.locks.try_acquire(1, 0x123400).acquired);
  f.locks.release(1);
}

TEST(AdvisoryLocks, SameLineSameLockDifferentOffsetsWithinLine) {
  Fixture f;
  EXPECT_EQ(f.locks.lock_index(0x123400), f.locks.lock_index(0x123408));
  EXPECT_EQ(f.locks.lock_index(0x123400), f.locks.lock_index(0x12343F));
}

TEST(AdvisoryLocks, ContentionIsReportedToHolder) {
  Fixture f;
  f.locks.try_acquire(0, 0x123400);
  EXPECT_FALSE(f.locks.contended_while_held(0));
  f.locks.try_acquire(1, 0x123400);  // fails, marks the holder contended
  EXPECT_TRUE(f.locks.contended_while_held(0));
  f.locks.release(0);
  // A fresh acquisition starts uncontended.
  f.locks.try_acquire(0, 0x123400);
  EXPECT_FALSE(f.locks.contended_while_held(0));
  f.locks.release(0);
}

TEST(AdvisoryLocks, ReleaseWithoutHoldIsNoOp) {
  Fixture f;
  EXPECT_EQ(f.locks.release(2), 0u);
}

TEST(AdvisoryLocks, HashSpreadsAcrossLockTable) {
  Fixture f(64);
  std::map<unsigned, unsigned> hits;
  for (sim::Addr a = 0x100000; a < 0x100000 + 64 * 256; a += 64)
    ++hits[f.locks.lock_index(a)];
  // 256 lines over 64 locks: no lock should collect more than 16.
  for (const auto& [idx, n] : hits) {
    EXPECT_LT(idx, 64u);
    EXPECT_LE(n, 16u);
  }
  EXPECT_GT(hits.size(), 32u);
}

TEST(AdvisoryLocks, LockWordsLiveOnPrivateLines) {
  Fixture f;
  for (unsigned i = 0; i + 1 < f.locks.size(); ++i)
    EXPECT_NE(sim::line_addr(f.locks.lock_addr(i)),
              sim::line_addr(f.locks.lock_addr(i + 1)));
}

TEST(AdvisoryLocks, LockStateVisibleThroughSimulatedMemory) {
  Fixture f;
  f.locks.try_acquire(2, 0xABC000);
  const unsigned idx = f.locks.lock_index(0xABC000);
  EXPECT_EQ(f.heap.load(f.locks.lock_addr(idx), 8), 3u);  // core+1
  f.locks.release(2);
  EXPECT_EQ(f.heap.load(f.locks.lock_addr(idx), 8), 0u);
}

TEST(AdvisoryLocksDeath, DoubleAcquireByOneCoreDies) {
  Fixture f;
  f.locks.try_acquire(0, 0x1000);
  EXPECT_DEATH(f.locks.try_acquire(0, 0x2000), "at most one");
}

}  // namespace
}  // namespace st::stagger
