// Block payload tests: BlockData keeps kInlineWords words in place and
// spills to one heap cell on the first write past them, yet must behave
// exactly like the zero-initialised kMaxBlockWords-word array it replaced.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Counts every heap allocation of this test binary, so a test can assert
// that a code path allocates nothing.
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bcsim::net {
namespace {

constexpr std::size_t kInline = BlockData::kInlineWords;

TEST(BlockData, DefaultIsEmptyAndReadsZeroEverywhere) {
  const BlockData d;
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.spilled());
  for (std::size_t i = 0; i < kMaxBlockWords; ++i) EXPECT_EQ(d[i], 0u) << "word " << i;
}

TEST(BlockData, InlineWritesAndReads) {
  BlockData d;
  d.count = kInline;
  for (std::size_t i = 0; i < kInline; ++i) d[i] = 10 + i;
  EXPECT_FALSE(d.spilled());
  const BlockData& c = d;
  for (std::size_t i = 0; i < kInline; ++i) EXPECT_EQ(c[i], 10 + i);
  for (std::size_t i = kInline; i < kMaxBlockWords; ++i) EXPECT_EQ(c[i], 0u);
}

TEST(BlockData, InitializerListSetsCountAndWords) {
  const BlockData four{1, 2, 3, 4};
  EXPECT_EQ(four.count, 4u);
  EXPECT_FALSE(four.spilled());
  EXPECT_EQ(four[3], 4u);
  const BlockData six{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(six.count, 6u);
  EXPECT_TRUE(six.spilled());
  EXPECT_EQ(six[5], 6u);
  EXPECT_EQ(six[6], 0u);
}

TEST(BlockData, FirstWritePastInlineKeepsEarlierWords) {
  BlockData d;
  d.count = kMaxBlockWords;
  for (std::size_t i = 0; i < kInline; ++i) d[i] = 100 + i;
  d[kInline] = 7;
  EXPECT_TRUE(d.spilled());
  const BlockData& c = d;
  for (std::size_t i = 0; i < kInline; ++i) EXPECT_EQ(c[i], 100 + i) << "word " << i;
  EXPECT_EQ(c[kInline], 7u);
  for (std::size_t i = kInline + 1; i < kMaxBlockWords; ++i) EXPECT_EQ(c[i], 0u) << "word " << i;
  d[kMaxBlockWords - 1] = 9;  // the whole range stays writable
  EXPECT_EQ(c[kMaxBlockWords - 1], 9u);
}

TEST(BlockData, ConstReadPastInlineReadsZeroAndAllocatesNothing) {
  BlockData d{1, 2, 3, 4};
  d.count = 8;  // a count past the inline words is not a write
  const BlockData& c = d;
  const std::size_t before = g_allocations;
  Word sum = 0;
  for (std::size_t i = kInline; i < kMaxBlockWords; ++i) sum += c[i];
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(sum, 0u);
  EXPECT_FALSE(d.spilled());
}

TEST(BlockData, CopiesOfInlinePayloadsAreDeep) {
  BlockData a{1, 2, 3, 4};
  BlockData b(a);
  BlockData c;
  c = a;
  a[0] = 50;
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(c.count, 4u);
}

TEST(BlockData, CopiesOfSpilledPayloadsAreDeep) {
  BlockData a;
  a.count = 32;
  for (std::size_t i = 0; i < kMaxBlockWords; ++i) a[i] = i + 1;
  BlockData b(a);
  BlockData c{9, 9, 9, 9, 9, 9};  // already spilled: its cell is reused
  c = a;
  a[0] = 50;
  a[20] = 50;
  for (const BlockData* copy : {&b, &c}) {
    EXPECT_TRUE(copy->spilled());
    EXPECT_EQ(copy->count, 32u);
    for (std::size_t i = 0; i < kMaxBlockWords; ++i) EXPECT_EQ((*copy)[i], i + 1) << "word " << i;
  }
  // Copying an inline payload over a spilled one drops the spilled words.
  c = BlockData{5};
  EXPECT_FALSE(c.spilled());
  EXPECT_EQ(c.count, 1u);
  EXPECT_EQ(c[0], 5u);
  EXPECT_EQ(std::as_const(c)[20], 0u);
  // Self-assignment keeps the words.
  BlockData& self = a;
  a = self;
  EXPECT_EQ(a[20], 50u);
}

TEST(BlockData, MovedFromPayloadIsSafeToDestroyAndReassign) {
  {
    BlockData spilled{1, 2, 3, 4, 5};
    BlockData taken(std::move(spilled));
    EXPECT_EQ(taken.count, 5u);
    EXPECT_EQ(taken[4], 5u);
    // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
    EXPECT_TRUE(spilled.empty());
    EXPECT_FALSE(spilled.spilled());
    EXPECT_EQ(std::as_const(spilled)[4], 0u);
    spilled = BlockData{7, 7, 7, 7, 7, 7};
    EXPECT_EQ(spilled[5], 7u);
    BlockData other{8, 8, 8, 8, 8};
    other = std::move(spilled);
    EXPECT_EQ(other.count, 6u);
    EXPECT_EQ(other[5], 7u);
    spilled = other;
    EXPECT_EQ(spilled[5], 7u);
    // NOLINTEND(bugprone-use-after-move)
  }  // every payload, moved-from or not, is destroyed here
  BlockData inline_src{3, 4};
  BlockData dst{1, 1, 1, 1, 1, 1, 1};
  dst = std::move(inline_src);
  EXPECT_EQ(dst.count, 2u);
  EXPECT_FALSE(dst.spilled());
  EXPECT_EQ(dst[1], 4u);
  EXPECT_EQ(std::as_const(dst)[6], 0u);
  inline_src = dst;  // NOLINT(bugprone-use-after-move): reassigning is allowed
  EXPECT_EQ(inline_src[1], 4u);
}

TEST(BlockData, FullBlockMaskCoversEveryWord) {
  EXPECT_EQ(full_block_mask(1), 0x1u);
  EXPECT_EQ(full_block_mask(4), 0xFu);
  EXPECT_EQ(full_block_mask(31), 0x7FFFFFFFu);
  EXPECT_EQ(full_block_mask(32), 0xFFFFFFFFu) << "a 32-word block needs all 32 bits";
}

TEST(BlockData, SizeClassAndFlitsDependOnlyOnCount) {
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  IdealNetwork net(simulator, stats, 2, 1);
  net.set_block_words(4);

  Message m;
  m.type = MsgType::kGetS;
  m.data[20] = 1;  // spilled, but count 0: still a control message
  ASSERT_TRUE(m.data.spilled());
  EXPECT_EQ(size_class(m), SizeClass::kControl);
  EXPECT_EQ(net.flits_of(m), 1u);

  Message inline_block;
  inline_block.type = MsgType::kDataS;
  inline_block.data.count = 4;
  Message spilled_block = inline_block;
  spilled_block.data[31] = 1;
  ASSERT_TRUE(spilled_block.data.spilled());
  EXPECT_EQ(size_class(inline_block), SizeClass::kBlock);
  EXPECT_EQ(size_class(spilled_block), SizeClass::kBlock);
  EXPECT_EQ(net.flits_of(inline_block), 5u);
  EXPECT_EQ(net.flits_of(spilled_block), 5u);
}

}  // namespace
}  // namespace bcsim::net
