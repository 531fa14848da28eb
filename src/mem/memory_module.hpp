// One node's slice of the distributed main memory: data storage + timing.
//
// Storage is sparse (only touched blocks exist; untouched words read as 0,
// like zero-initialized memory). A resident block is a net::BlockData, so
// the paper's 4-word blocks live in the map node itself. Timing follows
// the paper's model: a directory lookup costs t_D and a data access costs
// t_m (Table 4: main memory cycle time = 4 cache cycles). The module is a
// single-ported resource: overlapping requests serialize, and busy_until()
// exposes the queue so the directory controller charges honest latencies.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace bcsim::mem {

class MemoryModule {
 public:
  MemoryModule(std::uint32_t block_words, Tick t_directory, Tick t_memory)
      : block_words_(block_words), t_directory_(t_directory), t_memory_(t_memory) {}

  [[nodiscard]] std::uint32_t block_words() const noexcept { return block_words_; }
  [[nodiscard]] Tick t_directory() const noexcept { return t_directory_; }
  [[nodiscard]] Tick t_memory() const noexcept { return t_memory_; }

  /// Reads a whole block into a message payload.
  [[nodiscard]] net::BlockData read_block(BlockId b) const {
    if (auto it = blocks_.find(b); it != blocks_.end()) return it->second;
    net::BlockData out;
    out.count = static_cast<std::uint8_t>(block_words_);
    return out;
  }

  [[nodiscard]] Word read_word(BlockId b, std::uint32_t word) const {
    if (auto it = blocks_.find(b); it != blocks_.end()) return it->second[word];
    return 0;
  }

  void write_word(BlockId b, std::uint32_t word, Word value) {
    storage_of(b)[word] = value;
  }

  /// Writes back a block, honoring per-word dirty bits: only words whose
  /// bit is set in `dirty_mask` are stored. This is the mechanism that
  /// makes delayed writes from different nodes to the same block merge
  /// instead of losing updates (paper section 3, issue 6 / false sharing).
  void write_block_masked(BlockId b, const net::BlockData& data, std::uint32_t dirty_mask) {
    if (dirty_mask == 0) return;
    auto& w = storage_of(b);
    for (std::uint32_t i = 0; i < block_words_ && i < data.count; ++i) {
      if (dirty_mask & (1u << i)) w[i] = data[i];
    }
  }

  /// Serializes a request needing `service` cycles of module time starting
  /// no earlier than `now`; returns the completion tick.
  Tick occupy(Tick now, Tick service) noexcept {
    const Tick start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + service;
    return busy_until_;
  }

  [[nodiscard]] Tick busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] std::size_t resident_blocks() const noexcept { return blocks_.size(); }

  /// Visits every nonzero word as fn(block, word_index, value), in
  /// unspecified block order (the storage is a hash map — callers that
  /// need determinism sort what they collect). Trace capture uses this to
  /// snapshot pre-run memory contents.
  template <typename Fn>
  void for_each_word(Fn&& fn) const {
    for (const auto& [b, words] : blocks_) {
      for (std::uint32_t i = 0; i < block_words_; ++i) {
        if (words[i] != 0) fn(b, i, words[i]);
      }
    }
  }

 private:
  net::BlockData& storage_of(BlockId b) {
    auto [it, inserted] = blocks_.try_emplace(b);
    if (inserted) it->second.count = static_cast<std::uint8_t>(block_words_);
    return it->second;
  }

  std::uint32_t block_words_;
  Tick t_directory_;
  Tick t_memory_;
  Tick busy_until_ = 0;
  std::unordered_map<BlockId, net::BlockData> blocks_;
};

}  // namespace bcsim::mem
