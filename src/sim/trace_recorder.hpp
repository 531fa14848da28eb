// Event-trace recorder: a bounded ring of structured records describing
// what the machine did, cycle by cycle.
//
// The invariant checker (PR 1) tells us *that* a protocol rule broke at
// (block, node, tick); this layer records the message interleaving that
// led there, and doubles as the substrate for performance analysis — the
// paper's claims (buffered consistency, reader-initiated coherence, CBL)
// are all timing arguments, and a Chrome-trace view of a run is how we
// check where the cycles actually go.
//
// Design constraints, in order:
//   1. Near-zero cost when disabled: every record call starts with one
//      predictable branch on `enabled_`; no allocation, no formatting.
//   2. Fixed memory when enabled: records land in a ring buffer of
//      configurable capacity; old records are overwritten, and the total
//      recorded count is kept so exports can say how many were dropped.
//   3. Structured, not textual: records hold raw enum codes; names are
//      resolved only in the cold export paths (Chrome JSON / CSV / the
//      last-N dump printed on an invariant violation).
//
// Layering: this header depends only on sim/types.hpp, so the Simulator
// can own a TraceRecorder by value and every component that already holds
// a sim::Simulator& reaches the recorder without constructor churn. The
// record methods take raw std::uint8_t codes; instrumentation sites cast
// their protocol enums (net::MsgType, cache::MsiState, mem::DirState...)
// and the export code in trace_recorder.cpp casts them back for naming.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/types.hpp"

namespace bcsim::sim {

/// What a trace record describes. The five instrumented subsystems are
/// network (kMsgSend/kMsgDeliver), cache (kCacheState), directory
/// (kDirState), synchronization (kSyncOp), and write buffer (kWb*).
enum class TraceKind : std::uint8_t {
  kMsgSend,     ///< network injection; code = net::MsgType
  kMsgDeliver,  ///< network delivery; code = net::MsgType
  kCacheState,  ///< cache-line transition; code = CacheTraceOp
  kDirState,    ///< directory-entry transition; code = old/new DirState pair
  kSyncOp,      ///< lock/barrier/RMW milestone; code = SyncTraceOp
  kWbEnter,     ///< write entered the write buffer; value = txn
  kWbRetire,    ///< write acknowledged globally; value = txn
  kWbFlushReq,  ///< FLUSH-BUFFER issued (CP-Synch gate); value = pending
  kWbFlushDone, ///< FLUSH-BUFFER completed; value = pending at completion
};

/// Sub-kind for kCacheState records.
enum class CacheTraceOp : std::uint8_t {
  kMsi,           ///< detail/detail2 = old/new cache::MsiState
  kLock,          ///< detail/detail2 = old/new cache::LockState
  kUpdateBit,     ///< detail/detail2 = old/new subscription bit
  kUpdateApplied, ///< RuUpdate merged into the line; value = version
};

/// Sub-kind for kSyncOp records.
enum class SyncTraceOp : std::uint8_t {
  kLockReq,        ///< NP/CP-Synch lock request leaves the processor
  kLockGrant,      ///< this node became a lock holder
  kUnlock,         ///< unlock issued (release protocol continues async)
  kBarrierArrive,  ///< barrier arrival sent to the home memory
  kBarrierRelease, ///< barrier released at this node
  kRmw,            ///< atomic read-modify-write issued
};

/// One trace record. Plain data; meaning of code/detail/detail2/value is
/// per TraceKind as documented on the enums above.
struct TraceRecord {
  Tick tick = 0;
  TraceKind kind = TraceKind::kMsgSend;
  std::uint8_t code = 0;
  std::uint8_t detail = 0;
  std::uint8_t detail2 = 0;
  NodeId node = kNoNode;  ///< acting node (src / cache / home)
  NodeId peer = kNoNode;  ///< other endpoint where applicable (dst)
  BlockId block = 0;
  std::uint64_t value = 0;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// Starts recording into a ring of `capacity` records. Re-enabling
  /// resizes and clears.
  void enable(std::size_t capacity = kDefaultCapacity) {
    ring_.assign(capacity == 0 ? 1 : capacity, TraceRecord{});
    head_ = 0;
    recorded_ = 0;
    enabled_ = true;
  }

  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records retained in the ring (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_) : ring_.size();
  }
  /// Total records ever recorded (size() + dropped()).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return recorded_ - size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  void record(const TraceRecord& r) {
    if (!enabled_) return;
    ring_[head_] = r;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++recorded_;
  }

  // --- convenience recorders (all guarded; codes are raw casts of the
  // --- caller's protocol enums) ---

  void msg(TraceKind kind, Tick t, std::uint8_t type, NodeId src, NodeId dst,
           bool memory_unit, BlockId b, std::uint64_t txn) {
    if (!enabled_) return;
    record(TraceRecord{t, kind, type, memory_unit ? std::uint8_t{1} : std::uint8_t{0}, 0,
                       src, dst, b, txn});
  }

  void cache_state(Tick t, CacheTraceOp op, NodeId node, BlockId b, std::uint8_t old_state,
                   std::uint8_t new_state, std::uint64_t value = 0) {
    if (!enabled_) return;
    record(TraceRecord{t, TraceKind::kCacheState, static_cast<std::uint8_t>(op), old_state,
                       new_state, node, kNoNode, b, value});
  }

  void dir_state(Tick t, NodeId home, BlockId b, std::uint8_t old_state,
                 std::uint8_t new_state, std::uint64_t aux) {
    if (!enabled_) return;
    record(TraceRecord{t, TraceKind::kDirState, 0, old_state, new_state, home, kNoNode, b, aux});
  }

  void sync_op(Tick t, SyncTraceOp op, NodeId node, BlockId b, std::uint64_t value = 0) {
    if (!enabled_) return;
    record(TraceRecord{t, TraceKind::kSyncOp, static_cast<std::uint8_t>(op), 0, 0, node,
                       kNoNode, b, value});
  }

  void wb_event(TraceKind kind, Tick t, NodeId node, std::uint64_t value) {
    if (!enabled_) return;
    record(TraceRecord{t, kind, 0, 0, 0, node, kNoNode, 0, value});
  }

  /// Visits retained records oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::size_t start = (recorded_ <= ring_.size()) ? 0 : head_;
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(start + i) % ring_.size()]);
    }
  }

  /// Chrome trace-event JSON ({"traceEvents":[...]}, loadable in
  /// chrome://tracing or Perfetto): one process per node, one thread per
  /// unit (proc/sync, cache, write buffer, directory, network).
  void write_chrome_json(std::ostream& os) const;

  /// Flat CSV, one row per record, names resolved.
  void write_csv(std::ostream& os) const;

  /// Human-readable dump of the newest `n` records, oldest of them first.
  /// This is what an invariant violation prints next to its diagnostic.
  void dump_tail(std::ostream& os, std::size_t n) const;

 private:
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
};

}  // namespace bcsim::sim
