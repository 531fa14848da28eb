// Address map and memory module tests, including per-word dirty-bit merges
// (the paper's false-sharing fix at the memory side).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mem/address.hpp"
#include "mem/memory_module.hpp"

namespace bcsim::mem {
namespace {

TEST(AddressMap, BlockAndWordDecomposition) {
  AddressMap m(4, 8);
  EXPECT_EQ(m.block_of(0), 0u);
  EXPECT_EQ(m.block_of(3), 0u);
  EXPECT_EQ(m.block_of(4), 1u);
  EXPECT_EQ(m.word_of(6), 2u);
  EXPECT_EQ(m.base_of(3), 12u);
}

TEST(AddressMap, HomeInterleavesAcrossNodes) {
  AddressMap m(4, 4);
  EXPECT_EQ(m.home_of(0), 0u);
  EXPECT_EQ(m.home_of(1), 1u);
  EXPECT_EQ(m.home_of(5), 1u);
  EXPECT_EQ(m.home_of(7), 3u);
}

TEST(AddressMap, SingleWordBlocks) {
  AddressMap m(1, 2);
  EXPECT_EQ(m.block_of(9), 9u);
  EXPECT_EQ(m.word_of(9), 0u);
}

TEST(MemoryModule, UntouchedMemoryReadsZero) {
  MemoryModule mm(4, 1, 4);
  EXPECT_EQ(mm.read_word(100, 2), 0u);
  const auto block = mm.read_block(100);
  EXPECT_EQ(block.count, 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(block[static_cast<std::size_t>(i)], 0u);
  EXPECT_EQ(mm.resident_blocks(), 0u) << "reads must not materialize blocks";
}

TEST(MemoryModule, WordWritesPersist) {
  MemoryModule mm(4, 1, 4);
  mm.write_word(7, 3, 0xABCD);
  EXPECT_EQ(mm.read_word(7, 3), 0xABCDu);
  EXPECT_EQ(mm.read_word(7, 0), 0u);
  EXPECT_EQ(mm.resident_blocks(), 1u);
}

TEST(MemoryModule, MaskedWritebackMergesOnlyDirtyWords) {
  // Two nodes wrote different words of the same block; both write back with
  // per-word dirty bits. Neither update may be lost (paper section 3,
  // issue 6).
  MemoryModule mm(4, 1, 4);
  const net::BlockData from_a{1, 99, 99, 99};
  mm.write_block_masked(5, from_a, 0b0001);  // only word 0 is dirty
  const net::BlockData from_b{88, 88, 88, 2};
  mm.write_block_masked(5, from_b, 0b1000);  // only word 3 is dirty
  EXPECT_EQ(mm.read_word(5, 0), 1u);
  EXPECT_EQ(mm.read_word(5, 1), 0u);
  EXPECT_EQ(mm.read_word(5, 2), 0u);
  EXPECT_EQ(mm.read_word(5, 3), 2u);
}

TEST(MemoryModule, FullMaskWritebackOf32WordBlockStoresEveryWord) {
  MemoryModule mm(32, 1, 4);
  net::BlockData d;
  d.count = 32;
  for (std::size_t i = 0; i < 32; ++i) d[i] = 1000 + i;
  mm.write_block_masked(2, d, net::full_block_mask(32));
  for (std::uint32_t i = 0; i < 32; ++i) EXPECT_EQ(mm.read_word(2, i), 1000u + i) << "word " << i;
  const auto back = mm.read_block(2);
  EXPECT_EQ(back.count, 32u);
  EXPECT_EQ(back[31], 1031u);
}

TEST(MemoryModule, WordPastTheInlinePayloadOf32WordBlockReadsBack) {
  MemoryModule mm(32, 1, 4);
  mm.write_word(9, 31, 0xBEEF);
  EXPECT_EQ(mm.read_word(9, 31), 0xBEEFu);
  EXPECT_EQ(mm.read_word(9, 0), 0u);
  const auto back = mm.read_block(9);
  EXPECT_EQ(back.count, 32u);
  EXPECT_EQ(back[31], 0xBEEFu);
  for (std::size_t i = 0; i < 31; ++i) EXPECT_EQ(back[i], 0u) << "word " << i;
}

TEST(MemoryModule, MaskedWritebackOf32WordBlockMergesOnlyMaskedWords) {
  MemoryModule mm(32, 1, 4);
  mm.write_word(3, 1, 11);
  mm.write_word(3, 20, 22);
  net::BlockData d;
  d.count = 32;
  for (std::size_t i = 0; i < 32; ++i) d[i] = 500 + i;
  mm.write_block_masked(3, d, (1u << 2) | (1u << 30));
  for (std::uint32_t i = 0; i < 32; ++i) {
    const Word want = i == 1 ? 11 : i == 20 ? 22 : (i == 2 || i == 30) ? 500 + i : 0;
    EXPECT_EQ(mm.read_word(3, i), want) << "word " << i;
  }
}

TEST(MemoryModule, ForEachWordVisitsTheWrittenWord) {
  MemoryModule mm(32, 1, 4);
  mm.write_word(4, 31, 77);
  mm.write_word(6, 0, 0);  // resident but zero: not visited
  std::vector<std::tuple<BlockId, std::uint32_t, Word>> seen;
  mm.for_each_word([&](BlockId b, std::uint32_t w, Word v) { seen.emplace_back(b, w, v); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_tuple(BlockId{4}, 31u, Word{77}));
}

TEST(MemoryModule, EmptyMaskWritesNothing) {
  MemoryModule mm(4, 1, 4);
  const net::BlockData d{7, 7, 7, 7};
  mm.write_block_masked(3, d, 0);
  EXPECT_EQ(mm.resident_blocks(), 0u);
}

TEST(MemoryModule, OccupySerializesRequests) {
  MemoryModule mm(4, 1, 4);
  EXPECT_EQ(mm.occupy(10, 4), 14u);
  EXPECT_EQ(mm.occupy(10, 4), 18u) << "second request queues behind the first";
  EXPECT_EQ(mm.occupy(100, 2), 102u) << "idle module starts immediately";
  EXPECT_EQ(mm.busy_until(), 102u);
}

}  // namespace
}  // namespace bcsim::mem
