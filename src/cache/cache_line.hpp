// Cache line: data + the directory-entry fields of paper Figure 2a.
//
// Each line carries, beyond tag/state/data: per-word dirty bits d1..dk (so
// replacement writes back only dirty words — the false-sharing fix), an
// update bit (read-update subscription active), a lock field, and prev/next
// node pointers used to thread this line into either the read-update
// subscriber list or the lock waiting queue (the two uses are mutually
// exclusive per block; the central directory's usage bit says which).
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

/// Classic MSI stable states for the WBI baseline protocol. Lines used by
/// the read-update protocol or as lock lines are kShared-like for reads and
/// carry their own flags.
enum class MsiState : std::uint8_t { kInvalid, kShared, kModified };

/// Lock field of the cache directory entry (paper Figure 2a). States track
/// the line's position in the CBL protocol.
enum class LockState : std::uint8_t {
  kNone,       ///< not a lock line
  kWaitRead,   ///< enqueued, waiting for a read-lock grant
  kWaitWrite,  ///< enqueued, waiting for a write-lock grant
  kHeldRead,   ///< holding a shared lock
  kHeldWrite,  ///< holding an exclusive lock
  kDraining,   ///< released but possibly still the queue tail (successor
               ///< announce may be in flight; resolved via the directory)
  kReleasing,  ///< read-lock released; directory orchestrates disposition
  kQuerying,   ///< write-lock released with no known successor; tail query
               ///< outstanding — an arriving successor announce is handled
               ///< as a drain (hand off immediately)
};

struct CacheLine {
  BlockId block = 0;
  bool valid = false;

  MsiState msi = MsiState::kInvalid;
  bool update_bit = false;            ///< read-update subscription active
  LockState lock = LockState::kNone;
  std::uint32_t dirty_mask = 0;       ///< d1..dk of Figure 2a
  bool memory_stale = false;          ///< lock-carried data differs from memory

  NodeId prev = kNoNode;              ///< queue pointer (Figure 2a)
  NodeId next = kNoNode;              ///< queue pointer (Figure 2a)
  net::LockMode next_mode = net::LockMode::kRead;  ///< successor's requested mode

  net::BlockData data;
  Tick last_use = 0;                  ///< LRU timestamp
  bool pinned = false;                ///< transaction in flight; not replaceable
  std::uint64_t ru_version = 0;       ///< version of the last applied update

  [[nodiscard]] bool dirty() const noexcept { return dirty_mask != 0; }
  [[nodiscard]] bool holds_lock() const noexcept {
    return lock == LockState::kHeldRead || lock == LockState::kHeldWrite;
  }
  [[nodiscard]] bool lock_active() const noexcept { return lock != LockState::kNone; }

  /// Resets everything except the frame itself.
  void clear() noexcept {
    block = 0;
    valid = false;
    msi = MsiState::kInvalid;
    update_bit = false;
    lock = LockState::kNone;
    dirty_mask = 0;
    memory_stale = false;
    prev = next = kNoNode;
    next_mode = net::LockMode::kRead;
    data = net::BlockData{};
    last_use = 0;
    pinned = false;
    ru_version = 0;
  }
};

// A cache allocates its frames a set at a time, on the set's first fill,
// so a run's cache memory is assoc x sizeof(CacheLine) per set it touches:
// 416 B per 4-way set at 104 B a line. This bound keeps that budget; it
// fails, for example, if the payload goes back to 32 inline words (320 B a
// line), which would triple the frame memory of every run.
static_assert(sizeof(CacheLine) <= 120, "CacheLine grew: every touched set pays assoc x its size");

}  // namespace bcsim::cache
