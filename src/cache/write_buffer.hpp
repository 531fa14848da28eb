// Write buffer: the hardware behind buffered consistency (paper section 4.2).
//
// WRITE-GLOBAL requests are entered here and sent to memory immediately
// (the network model handles queuing); an entry is retired when the
// acknowledgment from the home memory arrives. The number of pending
// entries implicitly implements the Adve-Hill pending-operation counter
// (paper section 3, issue 2). FLUSH-BUFFER waiters are resumed when the
// writes *preceding* the flush have retired — that is the CP-Synch gate.
//
// Flush semantics (paper section 4.2): FLUSH-BUFFER only guarantees that
// global writes issued *before* it are performed; writes issued after may
// still be in flight. The gate is therefore a retire-count watermark
// captured at registration, not an empty-buffer test: under a bounded
// buffer, a slot freed by a retire immediately refills from a backlogged
// writer, so `pending == 0` may never hold and an empty-buffer gate would
// starve the flush (and with it the CP-Synch it protects) indefinitely.
//
// Capacity may be bounded (a real machine) or unbounded (the paper's
// simulation assumption). When bounded and full, new writes block until a
// slot frees; the caller provides the continuation.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/event_fn.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class WriteBuffer {
 public:
  /// Deliberate misbehaviors for oracle validation (core::WbFault mirrors
  /// this at the machine-config level; docs/TESTING.md).
  enum class Fault : std::uint8_t {
    kNone,
    kEagerFlush,  ///< on_drained fires immediately, gate removed
    kEmptyGate,   ///< on_drained waits for a fully empty buffer (pre-fix bug)
  };

  /// `capacity` 0 means unbounded (paper Table 4 assumption).
  explicit WriteBuffer(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Test-only: makes the flush gate misbehave (see Fault). Takes effect
  /// for flushes registered after the call.
  void inject_fault(Fault f) noexcept { fault_ = f; }

  [[nodiscard]] bool unbounded() const noexcept { return capacity_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return static_cast<std::size_t>(entered_ - retired_);
  }
  [[nodiscard]] bool empty() const noexcept { return entered_ == retired_; }
  [[nodiscard]] bool full() const noexcept {
    return capacity_ != 0 && pending() >= capacity_;
  }
  /// Cumulative writes retired (monotonic; flush watermarks compare here).
  [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }

  /// Registers a new in-flight global write; returns its transaction id.
  std::uint64_t enter() {
    ++entered_;
    return next_txn_++;
  }

  /// Retires the entry matching an acknowledgment. Fires one slot waiter
  /// when a slot frees, then every flush waiter whose watermark has been
  /// reached. The slot waiter goes first: the write it enters is *after*
  /// any already-registered flush, so it must not delay one.
  void retire() {
    if (retired_ == entered_) {
      throw std::logic_error("WriteBuffer::retire: ack without a matching entry");
    }
    ++retired_;
    if (!slot_waiters_.empty() && !full()) {
      auto fn = std::move(slot_waiters_.front());
      slot_waiters_.pop_front();
      fn();  // typically enter()s — raises entered_, not existing watermarks
    }
    while (!flush_waiters_.empty() && waiter_ready(flush_waiters_.front())) {
      auto fn = std::move(flush_waiters_.front().fn);
      flush_waiters_.pop_front();
      fn();
    }
  }

  /// Runs `fn` once every write entered *before this call* has retired
  /// (immediately if they already have). Writes entered afterwards do not
  /// delay it — the paper's FLUSH-BUFFER orders a CP-Synch after the
  /// writes that precede it, nothing more. `fn` is only type-erased when it
  /// has to wait.
  template <typename Fn>
  void on_drained(Fn&& fn) {
    if (fault_ == Fault::kEagerFlush || retired_ >= entered_) {
      fn();
    } else {
      const std::uint64_t mark = fault_ == Fault::kEmptyGate ? kEmptyMark : entered_;
      flush_waiters_.push_back(FlushWaiter{mark, std::forward<Fn>(fn)});
    }
  }

  /// Runs `fn` once a slot is available (immediately if not full).
  template <typename Fn>
  void on_slot(Fn&& fn) {
    if (!full()) {
      fn();
    } else {
      slot_waiters_.emplace_back(std::forward<Fn>(fn));
    }
  }

  /// Continuations parked on the buffer (flush + slot waiters). An empty
  /// buffer with waiters is a lost wakeup — the invariant checker asserts
  /// this is zero at quiescence.
  [[nodiscard]] std::size_t waiters() const noexcept {
    return flush_waiters_.size() + slot_waiters_.size();
  }

 private:
  /// A parked FLUSH-BUFFER: fires once `retired_` reaches the number of
  /// writes entered before it registered. Watermarks are non-decreasing in
  /// registration order, so the deque stays sorted by construction.
  /// kEmptyMark (the injected empty-gate bug) only fires on a fully
  /// drained buffer.
  struct FlushWaiter {
    std::uint64_t watermark;
    sim::EventFn fn;
  };
  static constexpr std::uint64_t kEmptyMark = ~std::uint64_t{0};

  [[nodiscard]] bool waiter_ready(const FlushWaiter& w) const noexcept {
    return w.watermark == kEmptyMark ? retired_ == entered_ : w.watermark <= retired_;
  }

  std::size_t capacity_;
  Fault fault_ = Fault::kNone;
  std::uint64_t entered_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t next_txn_ = 1;
  std::deque<FlushWaiter> flush_waiters_;
  std::deque<sim::EventFn> slot_waiters_;
};

}  // namespace bcsim::cache
