// Time-ordered event queue: the heart of the discrete-event kernel.
//
// Events are (tick, key, sequence, callback). The key breaks same-tick ties:
// with schedule seed 0 (the default) it equals the sequence number, so events
// scheduled for the same tick fire in scheduling order and every simulation
// is bit-reproducible and independent of queue internals. A nonzero schedule
// seed replaces the key with a SplitMix64 hash of (seed, seq), firing
// same-tick events in a deterministically permuted order — a different but
// equally legal serialization of concurrent activity. Events pushed on an
// ordering channel (push_channel) share a key per channel, so a seed can
// never reorder a point-to-point FIFO link. Sweeping seeds is how the test
// suite explores protocol interleavings (docs/TESTING.md).
//
// Representation: instead of one binary heap over every pending event (one
// O(log n) sift of a fat item per push and per pop), events are bucketed by
// tick. A small min-heap of {tick, serial, bucket} triples orders the
// buckets; each bucket is a contiguous vector of {key, seq, EventFn}. A
// push appends to its tick's bucket — found through a tiny direct-mapped
// cache (tick & mask) — and draining a tick pops the tick heap once and
// fires events straight out of the vector (already (key, seq)-sorted under
// seed 0; sorted on refill otherwise). A cache collision merely opens a
// second bucket for the same tick; the drain path merges same-tick buckets
// in creation (serial) order, which is sequence order, so correctness
// never depends on the cache. The heap is touched once per bucket instead
// of once per event, sifts move 24-byte PODs instead of full events, and
// bucket storage recycles, so the steady state allocates nothing. The
// fired order is bit-identical to the old all-events heap (total order by
// (tick, key, seq)); tests/test_event_repr locks the two representations
// together under schedule-seed sweeps.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// Min-queue of events ordered by (tick, key, seq).
class EventQueue {
 public:
  EventQueue() { cache_.fill(kNoBucket); }

  /// Selects the same-tick tie-break policy. Seed 0 restores strict FIFO
  /// (scheduling order); any other seed fires same-tick events in a
  /// deterministic pseudo-random permutation. Must be set before the first
  /// push — changing the policy mid-queue would reorder already-keyed events.
  void set_schedule_seed(std::uint64_t seed) noexcept { schedule_seed_ = seed; }
  [[nodiscard]] std::uint64_t schedule_seed() const noexcept { return schedule_seed_; }

  /// Schedules `fn` to fire at absolute time `at`. Returns the event's
  /// unique sequence number (usable for debugging; events cannot be
  /// cancelled — cancellation is modeled by the callback checking a flag,
  /// which keeps the queue trivially correct).
  std::uint64_t push(Tick at, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    insert(at, tie_key(seq), seq, std::move(fn));
    return seq;
  }

  /// Like push(), but ties the event to an ordering channel: same-tick
  /// events on the same channel always fire in scheduling order, under any
  /// schedule seed. The network uses one channel per (src, dst, unit) so a
  /// seed permutes genuinely concurrent activity but can never reorder two
  /// messages on one point-to-point link — hardware keeps those FIFO, and
  /// the protocols rely on it.
  std::uint64_t push_channel(Tick at, std::uint64_t channel, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    insert(at, channel_key(channel, seq), seq, std::move(fn));
    return seq;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Tick next_tick() const noexcept {
    assert(!empty() && "EventQueue::next_tick() on an empty queue");
    if (draining()) {
      const Tick cur = buckets_[cur_bucket_].at;
      return heap_.empty() ? cur : std::min(cur, heap_.front().at);
    }
    return heap_.front().at;
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] std::pair<Tick, EventFn> pop() {
    assert(!empty() && "EventQueue::pop() on an empty queue");
    if (draining()) {
      const Tick cur = buckets_[cur_bucket_].at;
      if (heap_.empty() || cur <= heap_.front().at) return take_from_current();
      stash_current();  // an earlier tick appeared (possible only outside run())
    }
    refill_current();
    return take_from_current();
  }

  /// Empties the queue and resets the sequence counter, so a cleared queue
  /// fires future same-tick events under the same tie-break keys as a fresh
  /// one (reused Machines must replay bit-identically). The schedule seed is
  /// kept — clear() resets contents, not policy.
  void clear() noexcept {
    buckets_.clear();
    free_buckets_.clear();
    heap_.clear();
    cache_.fill(kNoBucket);
    cur_bucket_ = kNoBucket;
    cur_pos_ = 0;
    size_ = 0;
    next_seq_ = 0;
    next_serial_ = 0;
  }

 private:
  struct Event {
    Event(std::uint64_t k, std::uint64_t s, EventFn&& f) noexcept
        : key(k), seq(s), fn(std::move(f)) {}
    std::uint64_t key;  ///< same-tick tie-break (== seq when seed is 0)
    std::uint64_t seq;  ///< final tie-break: keys may collide, seqs cannot
    EventFn fn;
  };
  struct Bucket {
    Tick at = 0;
    std::vector<Event> events;
  };
  /// Heap entry: one per open bucket. `serial` is the bucket's creation
  /// number; a bucket only receives events while it is the newest bucket
  /// for its tick, so within one tick, serial order == sequence order.
  struct HeapItem {
    Tick at;
    std::uint64_t serial;
    std::uint32_t bucket;
  };
  /// Comparator for std::push_heap (max-heap semantics -> invert to min).
  struct HeapLater {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.serial > b.serial;
    }
  };
  /// Ascending (key, seq) within one tick.
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.key != b.key) return a.key < b.key;
      return a.seq < b.seq;
    }
  };

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;
  static constexpr std::size_t kCacheSlots = 16;  ///< power of two

  [[nodiscard]] bool draining() const noexcept { return cur_bucket_ != kNoBucket; }

  void insert(Tick at, std::uint64_t key, std::uint64_t seq, EventFn&& fn) {
    ++size_;
    if (draining() && buckets_[cur_bucket_].at == at) {
      // Same-tick push while this tick is firing: merge into the unfired
      // tail at its (key, seq) position, so a seeded permutation interleaves
      // it exactly where the all-events heap would have.
      auto& ev = buckets_[cur_bucket_].events;
      Event e{key, seq, std::move(fn)};
      const auto it = std::upper_bound(ev.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
                                       ev.end(), e, Earlier{});
      ev.insert(it, std::move(e));
      return;
    }
    const std::size_t slot = static_cast<std::size_t>(at) & (kCacheSlots - 1);
    std::uint32_t bi = cache_[slot];
    if (bi == kNoBucket || buckets_[bi].at != at) {
      bi = acquire_bucket(at);
      heap_.push_back(HeapItem{at, next_serial_++, bi});
      std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
      cache_[slot] = bi;
    }
    buckets_[bi].events.emplace_back(key, seq, std::move(fn));
  }

  std::uint32_t acquire_bucket(Tick at) {
    if (!free_buckets_.empty()) {
      const std::uint32_t bi = free_buckets_.back();
      free_buckets_.pop_back();
      buckets_[bi].at = at;
      return bi;
    }
    buckets_.push_back(Bucket{at, {}});
    return static_cast<std::uint32_t>(buckets_.size() - 1);
  }

  /// Returns a drained bucket to the free list, dropping any cache entry
  /// still pointing at it (a freed index may be re-leased for another tick).
  void release_bucket(std::uint32_t bi) {
    Bucket& b = buckets_[bi];
    b.events.clear();  // keeps capacity for the bucket's next lease
    const std::size_t slot = static_cast<std::size_t>(b.at) & (kCacheSlots - 1);
    if (cache_[slot] == bi) cache_[slot] = kNoBucket;
    free_buckets_.push_back(bi);
  }

  void refill_current() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
    const HeapItem top = heap_.back();
    heap_.pop_back();
    cur_bucket_ = top.bucket;
    cur_pos_ = 0;
    // Merge any sibling buckets for the same tick (direct-mapped cache
    // collisions open one per interruption). Serial order is sequence
    // order, so under seed 0 the concatenation stays sorted.
    while (!heap_.empty() && heap_.front().at == top.at) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
      const std::uint32_t sib = heap_.back().bucket;
      heap_.pop_back();
      auto& dst = buckets_[cur_bucket_].events;
      auto& src = buckets_[sib].events;
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
      release_bucket(sib);
    }
    const std::size_t slot = static_cast<std::size_t>(top.at) & (kCacheSlots - 1);
    if (cache_[slot] != kNoBucket && buckets_[cache_[slot]].at == top.at) {
      cache_[slot] = kNoBucket;  // this tick is now firing; no more appends
    }
    if (schedule_seed_ != 0) {
      // Seed 0 appends in seq order with key == seq: already sorted.
      auto& ev = buckets_[cur_bucket_].events;
      std::sort(ev.begin(), ev.end(), Earlier{});
    }
  }

  std::pair<Tick, EventFn> take_from_current() {
    Bucket& b = buckets_[cur_bucket_];
    const Tick at = b.at;
    EventFn fn = std::move(b.events[cur_pos_].fn);
    ++cur_pos_;
    --size_;
    if (cur_pos_ == b.events.size()) {
      release_bucket(cur_bucket_);
      cur_bucket_ = kNoBucket;
      cur_pos_ = 0;
    }
    return {at, std::move(fn)};
  }

  /// Re-queues a part-drained bucket (an earlier tick was pushed mid-drain —
  /// impossible through Simulator, which forbids scheduling into the past,
  /// but the queue stays correct stand-alone). The fresh serial keeps it
  /// ahead of any bucket its tick acquires later, preserving seq order.
  void stash_current() {
    Bucket& b = buckets_[cur_bucket_];
    b.events.erase(b.events.begin(), b.events.begin() + static_cast<std::ptrdiff_t>(cur_pos_));
    heap_.push_back(HeapItem{b.at, next_serial_++, cur_bucket_});
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    cur_bucket_ = kNoBucket;
    cur_pos_ = 0;
  }

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept {
    if (schedule_seed_ == 0) return seq;
    // SplitMix64 over (seed, seq): a high-quality deterministic hash, so
    // every seed induces an independent-looking same-tick permutation.
    return SplitMix64(schedule_seed_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
  }

  /// Tie-break key of a channel push: every event on one channel shares
  /// it, so only seq can order them.
  [[nodiscard]] std::uint64_t channel_key(std::uint64_t channel,
                                          std::uint64_t seq) const noexcept {
    return (schedule_seed_ == 0)
               ? seq
               : SplitMix64(schedule_seed_ ^ (channel * 0x9e3779b97f4a7c15ULL)).next();
  }

  std::vector<Bucket> buckets_;               ///< bucket pool (index-stable)
  std::vector<std::uint32_t> free_buckets_;   ///< drained buckets, for reuse
  std::vector<HeapItem> heap_;                ///< min-heap of open buckets
  std::array<std::uint32_t, kCacheSlots> cache_{};  ///< tick & mask -> bucket
  std::uint32_t cur_bucket_ = kNoBucket;      ///< bucket currently firing
  std::size_t cur_pos_ = 0;                   ///< next unfired event in it
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_serial_ = 0;
  std::uint64_t schedule_seed_ = 0;
};

}  // namespace bcsim::sim
