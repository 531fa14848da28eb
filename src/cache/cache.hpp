// Set-associative data cache with LRU replacement.
//
// The cache stores *frames*; protocol state lives in the CacheLine. Victim
// selection skips pinned frames (transaction in flight) and lock-active
// frames (lock lines live in the separate LockCache anyway, but defense in
// depth costs nothing). The caller owns what happens to the victim
// (write-back of dirty words, reset-update notification).
//
// A set's `assoc` frames are allocated by the first pick_victim in that
// set, not at construction: most runs touch a few hundred blocks of a
// node's 1024-frame cache, and a litmus cell touches two or three. A set
// not yet allocated holds no valid line, so find misses on it and
// for_each_valid skips it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_line.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class Cache {
 public:
  /// `blocks` total frames, `assoc`-way associative. `blocks` must be a
  /// multiple of `assoc`, and the set count `blocks / assoc` a power of two.
  Cache(std::uint32_t blocks, std::uint32_t assoc);

  /// Looks up the line caching `b`; nullptr on miss.
  [[nodiscard]] CacheLine* find(BlockId b) noexcept {
    CacheLine* set = sets_[set_of(b)].get();
    if (set == nullptr) return nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (set[w].valid && set[w].block == b) return &set[w];
    }
    return nullptr;
  }
  [[nodiscard]] const CacheLine* find(BlockId b) const noexcept {
    return const_cast<Cache*>(this)->find(b);
  }

  /// Picks a victim frame in b's set, allocating the set on its first use.
  /// Invalid frames first, then LRU among unpinned, lock-inactive frames.
  /// Returns nullptr when every frame in the set is unreplaceable (caller
  /// must stall and retry).
  [[nodiscard]] CacheLine* pick_victim(BlockId b);

  /// Marks a use for LRU.
  void touch(CacheLine& line, Tick now) noexcept { line.last_use = now; }

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return set_mask_ + 1; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }

  /// Iterates all valid lines in set-major order (for invariant checks).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& set : sets_) {
      if (set == nullptr) continue;
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (set[w].valid) fn(set[w]);
      }
    }
  }

 private:
  [[nodiscard]] std::uint32_t set_of(BlockId b) const noexcept {
    return static_cast<std::uint32_t>(b & set_mask_);
  }

  std::uint32_t set_mask_;  // n_sets - 1; n_sets is a power of two
  std::uint32_t assoc_;
  std::vector<std::unique_ptr<CacheLine[]>> sets_;  // nullptr until first fill
};

}  // namespace bcsim::cache
