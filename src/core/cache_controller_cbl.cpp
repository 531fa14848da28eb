// Cache-based locking (CBL), cache side: the distributed lock queue of
// paper section 4.3. Lock lines live in the small fully-associative lock
// cache; prev/next pointers thread the queue; grants carry the protected
// data ("merging the data transfer with the synchronization request").
//
// Release discipline (matching the paper's accounting in Table 3):
//   * write-lock holder with a known successor: hand the lock + data
//     directly to the successor (one network hop on the critical path) and
//     notify the directory off the critical path;
//   * write-lock holder with no known successor: query the directory — a
//     successor announce may be in flight (the draining state);
//   * read-lock holders always release through the directory, which knows
//     whether other readers still hold the lock and orchestrates the
//     handoff from the last holder.
#include <cassert>
#include <stdexcept>

#include "core/cache_controller.hpp"

namespace bcsim::core {

using cache::CacheLine;
using cache::LockState;
using net::LockMode;
using net::Message;
using net::MsgType;
using net::Unit;

namespace {
constexpr std::uint8_t kAuxOrchestrate = 0;
constexpr std::uint8_t kAuxHandoffDone = 1;
constexpr std::uint8_t kAuxWriteback = 0;
constexpr std::uint8_t kAuxDrop = 1;
constexpr std::uint8_t kFwdShareBit = 2;
}  // namespace

void CacheController::op_lock(Addr a, net::LockMode mode, Cb cb) {
  const BlockId b = amap_.block_of(a);
  stats_.counter(mode == LockMode::kRead ? "cache.read_lock" : "cache.write_lock").add();
  if (CacheLine* line = lock_cache_.find(b); line != nullptr) {
    // The previous acquisition/release of this lock is still winding down
    // (e.g. an immediate re-lock while the unlock protocol is in flight).
    lock_free_waiters_[b].push_back(
        [this, a, mode, cb = std::move(cb)]() mutable { op_lock(a, mode, std::move(cb)); });
    stats_.counter("cache.lock_line_busy_waits").add();
    return;
  }
  const bool stalled = lock_cache_.on_slot(
      [this, b, mode, cb = std::move(cb)]() mutable { start_lock_request(b, mode, std::move(cb)); });
  if (stalled) stats_.counter("cache.lock_cache_stalls").add();
}

void CacheController::start_lock_request(BlockId b, net::LockMode mode, Cb cb) {
  CacheLine& line = lock_cache_.allocate(b);
  line.lock = (mode == LockMode::kRead) ? LockState::kWaitRead : LockState::kWaitWrite;
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kLockReq, node_, b,
                       static_cast<std::uint64_t>(mode));
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kLock, node_, b,
                           static_cast<std::uint8_t>(LockState::kNone),
                           static_cast<std::uint8_t>(line.lock));
  lock_cbs_.emplace(b, LockPending{std::move(cb), sim_.now()});
  auto m = make(MsgType::kLockReq, b);
  m.aux = static_cast<std::uint8_t>(mode);
  send(std::move(m));
}

void CacheController::op_unlock(Addr a, Cb cb) {
  const BlockId b = amap_.block_of(a);
  CacheLine* line = lock_cache_.find(b);
  if (line == nullptr || !line->holds_lock()) {
    throw std::logic_error("CacheController: unlock of a lock not held");
  }
  stats_.counter("cache.unlock").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kUnlock, node_, b);
  // "The unlocking processor is allowed to continue its computation
  // immediately, and does not have to wait for the unlock operation to be
  // performed globally."
  complete(cb, 0, kHitLatency);
  ++lock_release_inflight_;

  if (line->lock == LockState::kHeldWrite) {
    if (line->next != kNoNode) {
      // Fast path: direct handoff to the known successor.
      Message h;
      h.src = node_;
      h.dst = line->next;
      h.unit = Unit::kCache;
      h.type = MsgType::kLockHandoff;
      h.block = b;
      h.data = line->data;
      h.aux = line->memory_stale ? 1 : 0;
      send(std::move(h));
      auto n = make(MsgType::kUnlockNotify, b);
      n.aux = kAuxHandoffDone;
      n.who = line->next;
      send(std::move(n));
      release_lock_line(b);
    } else {
      // Successor unknown: ask the directory whether we are still the tail.
      line->lock = LockState::kQuerying;
      send(make(MsgType::kUnlockQuery, b));
    }
  } else {
    // Read locks release through the directory, which knows whether other
    // readers still hold the lock.
    line->lock = LockState::kReleasing;
    auto n = make(MsgType::kUnlockNotify, b);
    n.aux = kAuxOrchestrate;
    send(std::move(n));
  }
}

void CacheController::on_lock_grant(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kWaitRead || line->lock == LockState::kWaitWrite));
  line->data = m.data;
  line->memory_stale = false;
  became_holder(*line, /*chain_modified=*/false);
}

void CacheController::on_lock_fwd(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && "LockFwd for a block with no lock line");
  const auto mode = static_cast<LockMode>(m.aux & 1u);
  const bool share = (m.aux & kFwdShareBit) != 0;
  line->next = m.who;
  line->next_mode = mode;

  switch (line->lock) {
    case LockState::kHeldRead:
    case LockState::kHeldWrite:
      if (share) {
        Message g;
        g.src = node_;
        g.dst = m.who;
        g.unit = Unit::kCache;
        g.type = MsgType::kLockShareGrant;
        g.block = m.block;
        g.data = line->data;
        g.aux = line->memory_stale ? 1 : 0;
        send(std::move(g));
      } else {
        Message w;
        w.src = node_;
        w.dst = m.who;
        w.unit = Unit::kCache;
        w.type = MsgType::kLockWait;
        w.block = m.block;
        send(std::move(w));
      }
      break;
    case LockState::kWaitRead:
    case LockState::kWaitWrite:
    case LockState::kReleasing: {
      if (share && line->lock == LockState::kReleasing) {
        // We still have the data; the directory counted the newcomer as a
        // co-holder at forward time.
        Message g;
        g.src = node_;
        g.dst = m.who;
        g.unit = Unit::kCache;
        g.type = MsgType::kLockShareGrant;
        g.block = m.block;
        g.data = line->data;
        g.aux = line->memory_stale ? 1 : 0;
        send(std::move(g));
        break;
      }
      // Tell the newcomer where it queued; the grant (share cascade or
      // handoff) reaches it once we ourselves hold / release.
      Message w;
      w.src = node_;
      w.dst = m.who;
      w.unit = Unit::kCache;
      w.type = MsgType::kLockWait;
      w.block = m.block;
      send(std::move(w));
      break;
    }
    case LockState::kQuerying:  // the announce raced our tail query: drain now
    case LockState::kDraining: {
      // We released while this announce was in flight: pass the lock on
      // directly and leave the queue.
      assert(!share && "share-forward cannot target a draining write holder");
      Message h;
      h.src = node_;
      h.dst = m.who;
      h.unit = Unit::kCache;
      h.type = MsgType::kLockHandoff;
      h.block = m.block;
      h.data = line->data;
      h.aux = line->memory_stale ? 1 : 0;
      send(std::move(h));
      auto n = make(MsgType::kUnlockNotify, m.block);
      n.aux = kAuxHandoffDone;
      n.who = m.who;
      send(std::move(n));
      release_lock_line(m.block);
      break;
    }
    case LockState::kNone:
      throw std::logic_error("CacheController: LockFwd hit an inactive line");
  }
}

void CacheController::on_lock_share_grant(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && line->lock == LockState::kWaitRead);
  line->data = m.data;
  line->prev = m.src;
  became_holder(*line, m.aux != 0);
}

void CacheController::on_lock_wait(const net::Message& m) {
  if (CacheLine* line = lock_cache_.find(m.block)) line->prev = m.src;
}

void CacheController::on_lock_handoff(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kWaitRead || line->lock == LockState::kWaitWrite));
  line->data = m.data;
  became_holder(*line, m.aux != 0);
}

void CacheController::became_holder(cache::CacheLine& line, bool chain_modified) {
  line.memory_stale = chain_modified;
  const auto old_lock = static_cast<std::uint8_t>(line.lock);
  line.lock =
      (line.lock == LockState::kWaitWrite) ? LockState::kHeldWrite : LockState::kHeldRead;
  stats_.counter("cache.lock_granted").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kLockGrant, node_, line.block);
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kLock, node_, line.block, old_lock,
                           static_cast<std::uint8_t>(line.lock));
  cascade_share(line);
  auto it = lock_cbs_.find(line.block);
  assert(it != lock_cbs_.end());
  LockPending pending = std::move(it->second);
  lock_cbs_.erase(it);
  // The word the processor asked to lock rides along with the grant.
  complete_timed(pending.cb, line.data[0], pending.issued_at, "lat.lock_acquire");
}

void CacheController::cascade_share(cache::CacheLine& line) {
  // "The lock release notification goes down the linked list until it
  // meets a write-lock requester": a read holder whose successor also
  // requested a read lock passes the shared grant along.
  if (line.lock != LockState::kHeldRead) return;
  if (line.next == kNoNode || line.next_mode != LockMode::kRead) return;
  Message g;
  g.src = node_;
  g.dst = line.next;
  g.unit = Unit::kCache;
  g.type = MsgType::kLockShareGrant;
  g.block = line.block;
  g.data = line.data;
  g.aux = line.memory_stale ? 1 : 0;
  send(std::move(g));
  stats_.counter("cache.share_cascade").add();
}

void CacheController::on_unlock_empty(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kReleasing || line->lock == LockState::kQuerying));
  if (m.aux == kAuxWriteback) {
    auto wb = make(MsgType::kLockWriteback, m.block);
    if (line->memory_stale) {
      wb.data = line->data;
      wb.dirty_mask = net::full_block_mask(config_.block_words);
    }
    wb.aux = line->memory_stale ? 1 : 0;
    send(std::move(wb));
  } else {
    static_cast<void>(kAuxDrop);  // aux==kAuxDrop: other readers still hold
  }
  release_lock_line(m.block);
}

void CacheController::on_unlock_wait_succ(const net::Message& m) {
  // The successor announce may have arrived (and been drained) before this
  // reply; in that case the line is already gone — nothing to do.
  CacheLine* line = lock_cache_.find(m.block);
  if (line == nullptr || line->lock != LockState::kQuerying) return;
  line->lock = LockState::kDraining;
}

void CacheController::on_handoff_cmd(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && line->lock == LockState::kReleasing);
  Message h;
  h.src = node_;
  h.dst = m.who;
  h.unit = Unit::kCache;
  h.type = MsgType::kLockHandoff;
  h.block = m.block;
  h.data = line->data;
  h.aux = line->memory_stale ? 1 : 0;
  send(std::move(h));
  release_lock_line(m.block);
}

void CacheController::release_lock_line(BlockId b) {
  lock_cache_.release(b);
  assert(lock_release_inflight_ > 0);
  --lock_release_inflight_;
  fire_lock_free(b);
}

void CacheController::fire_lock_free(BlockId b) {
  auto it = lock_free_waiters_.find(b);
  if (it == lock_free_waiters_.end()) return;
  auto waiters = std::move(it->second);
  lock_free_waiters_.erase(it);
  for (auto& w : waiters) w();
}

}  // namespace bcsim::core
