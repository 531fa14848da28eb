// Lock cache: small fully-associative cache for lock lines (paper 4.3).
//
// Lines that participate in a lock queue must not be replaced (replacement
// would break the distributed linked list), so they live here instead of
// the main cache. The paper treats its limited size as a resource managed
// conservatively by the compiler; we expose the capacity as configuration,
// block acquisitions when full (counting stalls so the ablation bench can
// quantify the pressure), and free entries when a line leaves the queue.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <utility>

#include "cache/cache_line.hpp"
#include "sim/event_fn.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class LockCache {
 public:
  explicit LockCache(std::uint32_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool full() const noexcept { return index_.size() >= capacity_; }

  [[nodiscard]] CacheLine* find(BlockId b) noexcept {
    auto it = index_.find(b);
    return it == index_.end() ? nullptr : &*it->second;
  }
  [[nodiscard]] const CacheLine* find(BlockId b) const noexcept {
    auto it = index_.find(b);
    return it == index_.end() ? nullptr : &*it->second;
  }

  /// Allocates an entry for block `b`. Precondition: !full() && !find(b).
  CacheLine& allocate(BlockId b) {
    lines_.emplace_back();
    auto it = std::prev(lines_.end());
    it->clear();
    it->block = b;
    it->valid = true;
    index_.emplace(b, it);
    return *it;
  }

  /// Releases the entry for `b` and wakes one capacity waiter, if any.
  void release(BlockId b) {
    auto it = index_.find(b);
    if (it == index_.end()) return;
    lines_.erase(it->second);
    index_.erase(it);
    if (!waiters_.empty() && !full()) {
      auto fn = std::move(waiters_.front());
      waiters_.pop_front();
      ++stalls_served_;
      fn();
    }
  }

  /// Runs `fn` once an entry can be allocated (immediately if not full).
  /// Returns true if the caller had to wait. `fn` is only type-erased when
  /// it has to wait.
  template <typename Fn>
  bool on_slot(Fn&& fn) {
    if (!full()) {
      fn();
      return false;
    }
    waiters_.emplace_back(std::forward<Fn>(fn));
    return true;
  }

  /// Number of acquisitions that had to wait for lock-cache capacity.
  [[nodiscard]] std::uint64_t stalls_served() const noexcept { return stalls_served_; }

  /// Acquisitions currently parked for capacity. A non-full cache with
  /// waiters is a lost wakeup — the invariant checker asserts this is zero
  /// at quiescence.
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& line : lines_) fn(line);
  }

 private:
  std::uint32_t capacity_;
  std::list<CacheLine> lines_;  // stable addresses across insert/erase
  std::unordered_map<BlockId, std::list<CacheLine>::iterator> index_;
  std::deque<sim::EventFn> waiters_;
  std::uint64_t stalls_served_ = 0;
};

}  // namespace bcsim::cache
