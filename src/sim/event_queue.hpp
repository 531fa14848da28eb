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
// Representation: a timing wheel over one pooled node array. Every pending
// event is a Node in `nodes_`; fired nodes go on a free list, so retained
// memory is bounded by the peak pending count and the steady state
// allocates nothing. The wheel has kSlots slots covering the window
// [base_, base_ + kSlots); a tick's slot is `tick & kMask`, and each slot
// is a FIFO list of nodes threaded through Node::next. Two levels of
// occupancy bitmap find the next occupied slot with a count-trailing-zeros.
// Ticks outside the window go to an overflow binary heap of node indices
// ordered by (tick, key, seq): far events, which migrate into the wheel
// the moment the window reaches them, and pushes behind the window (only
// the stand-alone API can make those; they fire before anything in it).
// An empty queue centres its window on its next push.
//
// Same-tick order: under seed 0 a slot's list is appended in seq order,
// which is (key, seq) order, so it never needs sorting. Under any other
// seed the slot is sorted by (key, seq) when it becomes current, and a
// push onto the current tick goes into the unfired tail at its (key, seq)
// place. The fired order is therefore the total order by (tick, key, seq),
// bit-identical to one heap over every event; tests/test_event_repr locks
// the queue to such a heap under schedule-seed sweeps.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// Min-queue of events ordered by (tick, key, seq).
class EventQueue {
 public:
  /// Width of the timing wheel's window in ticks: pushes up to this far
  /// ahead of the current tick land in the wheel, the rest in the overflow
  /// heap. A constant, not a knob: it changes speed, never the order.
  static constexpr std::size_t kSlots = 4096;

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

  /// Time of the earliest pending event. Precondition: !empty(). Moves the
  /// window onto that event, so the pop() that follows takes it without a
  /// second search (the pending events and their order do not change).
  [[nodiscard]] Tick next_tick() {
    assert(!empty() && "EventQueue::next_tick() on an empty queue");
    return settle();
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] std::pair<Tick, EventFn> pop() {
    assert(!empty() && "EventQueue::pop() on an empty queue");
    const Tick at = settle();
    const std::uint32_t i = (at < base_) ? pop_overflow() : pop_current();
    Node& n = nodes_[i];
    n.next = free_;
    free_ = i;
    --size_;
    // The callable moves last, here and in insert(): its byte copy may
    // alias anything, so queue state touched after it would be reloaded.
    return {at, std::move(n.fn)};
  }

  /// Empties the queue and resets the sequence counter, so a cleared queue
  /// fires future same-tick events under the same tie-break keys as a
  /// fresh one (reused Machines must replay bit-identically). Its window
  /// is placed by the next push, as a fresh queue's is. The schedule seed
  /// is kept — clear() resets contents, not policy.
  void clear() noexcept {
    nodes_.clear();
    overflow_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
    words_.fill(0);
    summary_ = 0;
    free_ = kNil;
    size_ = 0;
    next_seq_ = 0;
  }

 private:
  struct Node {
    Tick at = 0;
    std::uint64_t key = 0;  ///< same-tick tie-break (== seq when seed is 0)
    std::uint64_t seq = 0;  ///< final tie-break: keys may collide, seqs cannot
    std::uint32_t next = kNil;  ///< slot list or free list link
    EventFn fn;
  };
  /// One tick's FIFO list of nodes.
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;
  static_assert(kWords == 64, "one summary word covers the occupancy words");

  /// Ascending (key, seq) within one tick.
  [[nodiscard]] bool earlier(std::uint32_t a, std::uint32_t b) const noexcept {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.key != y.key ? x.key < y.key : x.seq < y.seq;
  }
  /// Overflow heap order: std::push_heap is a max-heap, so invert.
  [[nodiscard]] bool later(std::uint32_t a, std::uint32_t b) const noexcept {
    const Tick x = nodes_[a].at;
    const Tick y = nodes_[b].at;
    return x != y ? x > y : earlier(b, a);
  }

  [[nodiscard]] bool in_window(Tick at) const noexcept {
    return at >= base_ && at - base_ < kSlots;
  }

  void insert(Tick at, std::uint64_t key, std::uint64_t seq, EventFn&& fn) {
    if (size_ == 0) [[unlikely]] rebase(at);
    ++size_;
    if (free_ == kNil) [[unlikely]] grow();
    const std::uint32_t i = free_;
    Node& n = nodes_[i];
    free_ = n.next;
    n.at = at;
    n.key = key;
    n.seq = seq;
    if (in_window(at)) [[likely]] {
      place(i);
    } else {
      push_overflow(i);
    }
    n.fn = std::move(fn);
  }

  /// Links node `i` (its tick inside the window) into its slot's list.
  void place(std::uint32_t i) {
    Node& n = nodes_[i];
    const std::size_t s = n.at & kMask;
    Slot& slot = slots_[s];
    n.next = kNil;
    if (slot.head == kNil) {
      slot.head = slot.tail = i;
      words_[s >> 6] |= std::uint64_t{1} << (s & 63);
      summary_ |= std::uint64_t{1} << (s >> 6);
    } else if (n.at == sorted_tick_) [[unlikely]] {
      place_sorted(i, slot);
    } else {
      nodes_[slot.tail].next = i;
      slot.tail = i;
    }
  }

  /// Makes the earliest event the front and returns its tick: either the
  /// overflow top, when it lies behind the window, or the head of the slot
  /// at base_, after moving the window onto the next occupied slot.
  Tick settle() {
    if (slots_[base_ & kMask].head != kNil &&
        (overflow_.empty() || nodes_[overflow_.front()].at >= base_)) [[likely]] {
      return base_;
    }
    return advance();
  }

  /// Unlinks the head of the current slot (base_'s), sorting the slot
  /// first if it has just become current under a nonzero seed.
  std::uint32_t pop_current() {
    const std::size_t s = base_ & kMask;
    Slot& slot = slots_[s];
    if (schedule_seed_ != 0 && sorted_tick_ != base_) [[unlikely]] {
      sort_slot(slot);
      sorted_tick_ = base_;
    }
    const std::uint32_t i = slot.head;
    slot.head = nodes_[i].next;
    if (slot.head == kNil) {
      slot.tail = kNil;
      std::uint64_t& word = words_[s >> 6];
      word &= ~(std::uint64_t{1} << (s & 63));
      if (word == 0) summary_ &= ~(std::uint64_t{1} << (s >> 6));
    }
    return i;
  }

  // The slow paths live in event_queue.cpp, out of the inlined hot path.
  void grow();
  void rebase(Tick at);
  void place_sorted(std::uint32_t i, Slot& slot);
  Tick advance();
  [[nodiscard]] Tick next_occupied() const noexcept;
  void migrate();
  void sort_slot(Slot& slot);
  void push_overflow(std::uint32_t i);
  std::uint32_t pop_overflow();

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

  std::vector<Node> nodes_;                ///< node pool (index-stable)
  std::vector<Slot> slots_;                ///< the wheel; sized on first push
  std::vector<std::uint32_t> overflow_;    ///< min-heap of nodes outside the window
  std::vector<std::uint32_t> scratch_;     ///< sort buffer for a seeded slot
  std::array<std::uint64_t, kWords> words_{};  ///< bit s: slot s is occupied
  std::uint64_t summary_ = 0;              ///< bit w: words_[w] != 0
  std::uint32_t free_ = kNil;              ///< free-list head in nodes_
  Tick base_ = 0;                          ///< window start; the current tick
  Tick sorted_tick_ = kNever;              ///< tick whose slot is (key, seq)-sorted
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t schedule_seed_ = 0;
};

}  // namespace bcsim::sim
