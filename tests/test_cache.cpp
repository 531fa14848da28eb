// Cache structure tests: set-associative cache, write buffer, lock cache.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hpp"
#include "cache/lock_cache.hpp"
#include "cache/write_buffer.hpp"

namespace bcsim::cache {
namespace {

TEST(Cache, FindMissesOnEmpty) {
  Cache c(16, 4);
  EXPECT_EQ(c.find(3), nullptr);
  EXPECT_EQ(c.n_sets(), 4u);
  EXPECT_EQ(c.assoc(), 4u);
}

TEST(Cache, InstallAndFind) {
  Cache c(16, 4);
  CacheLine* v = c.pick_victim(5);
  ASSERT_NE(v, nullptr);
  v->block = 5;
  v->valid = true;
  EXPECT_EQ(c.find(5), v);
  EXPECT_EQ(c.find(9), nullptr);  // 9 maps to a different set (9 % 4 = 1)
}

TEST(Cache, VictimPrefersInvalidFrames) {
  Cache c(8, 2);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->last_use = 100;
  CacheLine* b = c.pick_victim(4);  // same set (0), second way
  EXPECT_NE(b, a);
  EXPECT_FALSE(b->valid);
}

TEST(Cache, VictimIsLruAmongValid) {
  Cache c(8, 2);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->last_use = 50;
  CacheLine* b = c.pick_victim(4);
  b->block = 4;
  b->valid = true;
  b->last_use = 10;
  EXPECT_EQ(c.pick_victim(8), b) << "older line should be evicted";
  b->last_use = 90;
  EXPECT_EQ(c.pick_victim(8), a);
}

TEST(Cache, PinnedAndLockedFramesAreNotVictims) {
  Cache c(4, 2);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->pinned = true;
  CacheLine* b = c.pick_victim(2);
  b->block = 2;
  b->valid = true;
  b->lock = LockState::kHeldWrite;
  EXPECT_EQ(c.pick_victim(4), nullptr) << "all frames unreplaceable";
  b->lock = LockState::kNone;
  EXPECT_EQ(c.pick_victim(4), b);
}

TEST(Cache, BadGeometryThrows) {
  EXPECT_THROW(Cache(10, 4), std::invalid_argument);
  EXPECT_THROW(Cache(0, 1), std::invalid_argument);
  EXPECT_THROW(Cache(4, 0), std::invalid_argument);
  EXPECT_THROW(Cache(12, 4), std::invalid_argument) << "3 sets: not a power of two";
  EXPECT_NO_THROW(Cache(1, 1));
}

// --- lazily allocated sets ---

/// Installs `b` in its set the way CacheController::install_line does.
CacheLine* fill(Cache& c, BlockId b, Tick now) {
  CacheLine* v = c.pick_victim(b);
  if (v == nullptr) return nullptr;
  v->clear();
  v->block = b;
  v->valid = true;
  v->last_use = now;
  return v;
}

TEST(CacheLazySets, FreshCacheMissesOnEverySet) {
  Cache c(1024, 4);
  for (BlockId b = 0; b < 2 * c.n_sets(); ++b) EXPECT_EQ(c.find(b), nullptr) << "block " << b;
  int visited = 0;
  c.for_each_valid([&](const CacheLine&) { ++visited; });
  EXPECT_EQ(visited, 0);
}

TEST(CacheLazySets, ForEachValidVisitsOnlyFilledSets) {
  Cache c(64, 4);  // 16 sets
  const BlockId last = c.n_sets() - 1;
  const CacheLine* a = fill(c, 0, 1);
  const CacheLine* b = fill(c, c.n_sets(), 2);  // set 0, second way
  const CacheLine* z = fill(c, last, 3);
  std::vector<const CacheLine*> seen;
  c.for_each_valid([&](const CacheLine& l) { seen.push_back(&l); });
  EXPECT_EQ(seen, (std::vector<const CacheLine*>{a, b, z})) << "set-major order";
}

TEST(CacheLazySets, NewSetHandsOutWaysInOrder) {
  Cache c(32, 4);  // 8 sets
  std::vector<CacheLine*> ways;
  for (std::uint32_t k = 0; k < 4; ++k) {
    // Later fills carry older timestamps: LRU would pick the newest way
    // first if it were consulted before every invalid way was used.
    CacheLine* v = fill(c, 3 + k * c.n_sets(), 100 - k);
    ASSERT_NE(v, nullptr);
    ways.push_back(v);
  }
  for (std::uint32_t k = 1; k < 4; ++k) EXPECT_EQ(ways[k], ways[0] + k) << "way " << k;
  EXPECT_EQ(c.pick_victim(3 + 4 * c.n_sets()), ways[3]) << "full set: LRU picks the oldest";
}

TEST(CacheLazySets, AllocatedSetOfUnreplaceableFramesHasNoVictim) {
  Cache c(16, 2);  // 8 sets
  for (std::uint32_t k = 0; k < 2; ++k) fill(c, 5 + k * c.n_sets(), k);
  c.find(5)->pinned = true;
  c.find(5 + c.n_sets())->lock = LockState::kWaitRead;
  EXPECT_EQ(c.pick_victim(5 + 2 * c.n_sets()), nullptr);
  EXPECT_NE(c.pick_victim(6), nullptr) << "other sets are unaffected";
}

TEST(CacheLazySets, ReinstallAfterClearFindsTheNewFrame) {
  Cache c(16, 4);  // 4 sets
  CacheLine* first = fill(c, 2, 1);
  fill(c, 6, 2);
  first->clear();
  EXPECT_EQ(c.find(2), nullptr);
  CacheLine* again = fill(c, 2, 3);
  EXPECT_EQ(again, first) << "the cleared way is the first invalid one";
  EXPECT_EQ(c.find(2), again);
  EXPECT_EQ(c.find(6)->block, 6u);
}

TEST(CacheLine, ClearResetsEverything) {
  CacheLine l;
  l.block = 9;
  l.valid = true;
  l.msi = MsiState::kModified;
  l.update_bit = true;
  l.dirty_mask = 0xF;
  l.prev = 1;
  l.next = 2;
  l.pinned = true;
  l.clear();
  EXPECT_FALSE(l.valid);
  EXPECT_EQ(l.msi, MsiState::kInvalid);
  EXPECT_FALSE(l.update_bit);
  EXPECT_EQ(l.dirty_mask, 0u);
  EXPECT_EQ(l.prev, kNoNode);
  EXPECT_EQ(l.next, kNoNode);
  EXPECT_FALSE(l.pinned);
}

// --- write buffer ---

TEST(WriteBuffer, PendingCountTracksEnterRetire) {
  WriteBuffer wb;
  EXPECT_TRUE(wb.empty());
  wb.enter();
  wb.enter();
  EXPECT_EQ(wb.pending(), 2u);
  wb.retire();
  EXPECT_EQ(wb.pending(), 1u);
  wb.retire();
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, TxnIdsAreUnique) {
  WriteBuffer wb;
  EXPECT_NE(wb.enter(), wb.enter());
}

TEST(WriteBuffer, FlushWaitersFireOnDrain) {
  WriteBuffer wb;
  int fired = 0;
  wb.on_drained([&] { ++fired; });
  EXPECT_EQ(fired, 1) << "empty buffer completes immediately";
  wb.enter();
  wb.on_drained([&] { ++fired; });
  wb.on_drained([&] { ++fired; });
  EXPECT_EQ(fired, 1);
  wb.retire();
  EXPECT_EQ(fired, 3);
}

TEST(WriteBuffer, BoundedCapacityBlocksAndWakes) {
  WriteBuffer wb(2);
  int issued = 0;
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  EXPECT_EQ(issued, 2);
  EXPECT_TRUE(wb.full());
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  EXPECT_EQ(issued, 2) << "third write must wait for a slot";
  wb.retire();
  EXPECT_EQ(issued, 3);
  EXPECT_TRUE(wb.full());
}

TEST(WriteBuffer, UnboundedNeverFull) {
  WriteBuffer wb(0);
  for (int i = 0; i < 1000; ++i) wb.enter();
  EXPECT_FALSE(wb.full());
  EXPECT_TRUE(wb.unbounded());
}

// --- lock cache ---

TEST(LockCache, AllocateFindRelease) {
  LockCache lc(2);
  CacheLine& a = lc.allocate(10);
  EXPECT_EQ(a.block, 10u);
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(lc.find(10), &a);
  EXPECT_EQ(lc.find(11), nullptr);
  lc.release(10);
  EXPECT_EQ(lc.find(10), nullptr);
  EXPECT_EQ(lc.size(), 0u);
}

TEST(LockCache, CapacityBlocksUntilRelease) {
  LockCache lc(1);
  int ran = 0;
  EXPECT_FALSE(lc.on_slot([&] {
    ++ran;
    lc.allocate(1);
  }));
  EXPECT_TRUE(lc.full());
  EXPECT_TRUE(lc.on_slot([&] {
    ++ran;
    lc.allocate(2);
  }));
  EXPECT_EQ(ran, 1);
  lc.release(1);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(lc.stalls_served(), 1u);
  EXPECT_EQ(lc.find(2)->block, 2u);
}

TEST(LockCache, ReleaseOfUnknownBlockIsIdempotent) {
  LockCache lc(2);
  lc.release(99);  // no-op
  EXPECT_EQ(lc.size(), 0u);
}

TEST(LockCache, StableAddressesAcrossChurn) {
  LockCache lc(4);
  CacheLine& a = lc.allocate(1);
  lc.allocate(2);
  lc.release(2);
  lc.allocate(3);
  EXPECT_EQ(lc.find(1), &a) << "entries must not move on unrelated churn";
}

}  // namespace
}  // namespace bcsim::cache
