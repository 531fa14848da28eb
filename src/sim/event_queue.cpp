// The event queue's slow paths: node-pool growth, window moves, the
// overflow heap and seeded same-tick sorting. The per-event push and pop
// stay inline in event_queue.hpp; keeping these out of it keeps that code
// small enough to inline into the simulator's loop.
#include "sim/event_queue.hpp"

#include <bit>

namespace bcsim::sim {

/// Adds a node to the pool and makes it the free list.
void EventQueue::grow() {
  free_ = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
}

/// An empty queue centres its window on the next push, so the pushes that
/// follow it at lower ticks still land in the wheel, and forgets which tick
/// it last sorted. The wheel's slot array is allocated here on the first
/// push, not at construction: a machine that never runs never pays for it.
void EventQueue::rebase(Tick at) {
  if (slots_.empty()) slots_.resize(kSlots);
  base_ = at - std::min<Tick>(at, kSlots / 2);
  sorted_tick_ = kNever;
}

/// The tick is firing under a nonzero seed: weaves node `i` into the
/// unfired tail at its (key, seq) place.
void EventQueue::place_sorted(std::uint32_t i, Slot& slot) {
  std::uint32_t prev = kNil;
  std::uint32_t cur = slot.head;
  while (cur != kNil && !earlier(i, cur)) {
    prev = cur;
    cur = nodes_[cur].next;
  }
  nodes_[i].next = cur;
  (prev == kNil ? slot.head : nodes_[prev].next) = i;
  if (cur == kNil) slot.tail = i;
}

/// settle()'s slow path: the current slot is empty or an event waits
/// behind the window.
Tick EventQueue::advance() {
  if (!overflow_.empty()) {
    const Tick top = nodes_[overflow_.front()].at;
    if (top < base_) return top;  // a push behind the window fires first
    if (summary_ == 0) {          // the wheel is empty: jump to the far event
      base_ = top;
      migrate();
      return base_;
    }
  }
  base_ = next_occupied();
  migrate();
  return base_;
}

/// Tick of the first occupied slot after base_'s (empty) slot, in window
/// order. Precondition: the wheel holds an event.
Tick EventQueue::next_occupied() const noexcept {
  const std::size_t s = base_ & kMask;
  const std::size_t w = s >> 6;
  const std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (s & 63));
  std::size_t found;
  if (bits != 0) {
    found = (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
  } else {
    std::uint64_t later_words = (w == kWords - 1) ? 0 : summary_ & (~std::uint64_t{0} << (w + 1));
    if (later_words == 0) later_words = summary_;  // wraps past the last slot
    const auto w2 = static_cast<std::size_t>(std::countr_zero(later_words));
    found = (w2 << 6) | static_cast<std::size_t>(std::countr_zero(words_[w2]));
  }
  return base_ + ((found - s) & kMask);
}

/// Moves every overflow event the window now covers into the wheel. The
/// heap pops them in (tick, key, seq) order, and no push can have reached
/// their slots yet, so each slot's list stays in order. Only called with
/// nothing behind the window, so the heap top is never a past event.
void EventQueue::migrate() {
  while (!overflow_.empty() && in_window(nodes_[overflow_.front()].at)) place(pop_overflow());
}

void EventQueue::sort_slot(Slot& slot) {
  if (slot.head == slot.tail) return;
  scratch_.clear();
  for (std::uint32_t i = slot.head; i != kNil; i = nodes_[i].next) scratch_.push_back(i);
  std::sort(scratch_.begin(), scratch_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return earlier(a, b); });
  for (std::size_t k = 0; k + 1 < scratch_.size(); ++k) nodes_[scratch_[k]].next = scratch_[k + 1];
  slot.head = scratch_.front();
  slot.tail = scratch_.back();
  nodes_[slot.tail].next = kNil;
}

void EventQueue::push_overflow(std::uint32_t i) {
  overflow_.push_back(i);
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [this](std::uint32_t a, std::uint32_t b) { return later(a, b); });
}

std::uint32_t EventQueue::pop_overflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(),
                [this](std::uint32_t a, std::uint32_t b) { return later(a, b); });
  const std::uint32_t i = overflow_.back();
  overflow_.pop_back();
  return i;
}

}  // namespace bcsim::sim
