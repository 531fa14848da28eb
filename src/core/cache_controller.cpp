// Dispatch, Table-1 read/write ops, the WBI transaction engine, write
// buffer management, and eviction.
#include "core/cache_controller.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/log.hpp"

namespace bcsim::core {

using cache::CacheLine;
using cache::LockState;
using cache::MsiState;
using net::Message;
using net::MsgType;
using net::Unit;

CacheController::CacheController(NodeId node, sim::Simulator& simulator, net::Network& network,
                                 const mem::AddressMap& amap, const MachineConfig& config,
                                 sim::StatsRegistry& stats)
    : node_(node), sim_(simulator), net_(network), amap_(amap), config_(config), stats_(stats),
      cache_(config.cache_blocks, config.cache_assoc),
      lock_cache_(config.lock_cache_entries),
      wbuf_(config.write_buffer_entries) {
  switch (config.wb_fault) {
    case WbFault::kNone:
      break;
    case WbFault::kEagerFlush:
      wbuf_.inject_fault(cache::WriteBuffer::Fault::kEagerFlush);
      break;
    case WbFault::kEmptyGate:
      wbuf_.inject_fault(cache::WriteBuffer::Fault::kEmptyGate);
      break;
  }
}

bool CacheController::quiescent() const noexcept {
  return !mshr_.active && wbuf_.empty() && write_acks_.empty() && lock_cbs_.empty() &&
         barrier_cbs_.empty() && lock_release_inflight_ == 0;
}

void CacheController::on_message(const net::Message& m) {
  switch (m.type) {
    case MsgType::kDataS:
    case MsgType::kDataX:
    case MsgType::kRmwAck:
    case MsgType::kReadGlobalAck:
      on_data(m);
      break;
    case MsgType::kInvAck:
      assert(mshr_.active && mshr_.block == m.block);
      ++mshr_.acks_got;
      finish_wbi_txn();
      break;
    case MsgType::kInv: on_inv(m); break;
    case MsgType::kRecall: on_recall(m); break;
    case MsgType::kPutAck:
      stats_.counter("cache.put_acks").add();
      break;
    case MsgType::kWriteGlobalAck: {
      sim_.trace().wb_event(sim::TraceKind::kWbRetire, sim_.now(), node_, m.txn);
      wbuf_.retire();
      if (auto it = write_acks_.find(m.txn); it != write_acks_.end()) {
        Cb cb = std::move(it->second);
        write_acks_.erase(it);
        cb(Response{});
      }
      break;
    }
    case MsgType::kReadUpdateData: on_ru_data(m); break;
    case MsgType::kRuLinkPrev: {
      if (CacheLine* line = cache_.find(m.block); line && line->update_bit) {
        line->prev = m.who;
      }
      break;
    }
    case MsgType::kRuUpdate: on_ru_update(m); break;
    case MsgType::kRuUnlink: {
      // Mirror maintenance after a neighbor left the subscription list.
      if (CacheLine* line = cache_.find(m.block); line && line->update_bit) {
        if (line->prev == m.who) line->prev = m.value == 0 ? kNoNode : static_cast<NodeId>(m.value - 1);
        if (line->next == m.who) line->next = m.value == 0 ? kNoNode : static_cast<NodeId>(m.value - 1);
      }
      break;
    }
    case MsgType::kLockGrant: on_lock_grant(m); break;
    case MsgType::kLockFwd: on_lock_fwd(m); break;
    case MsgType::kLockShareGrant: on_lock_share_grant(m); break;
    case MsgType::kLockWait: on_lock_wait(m); break;
    case MsgType::kLockHandoff: on_lock_handoff(m); break;
    case MsgType::kUnlockEmpty: on_unlock_empty(m); break;
    case MsgType::kUnlockWaitSucc: on_unlock_wait_succ(m); break;
    case MsgType::kHandoffCmd: on_handoff_cmd(m); break;
    case MsgType::kBarArriveAck: on_bar_ack(m); break;
    case MsgType::kBarRelease: on_bar_release(m); break;
    default:
      throw std::logic_error("CacheController: unexpected message type " +
                             std::string(net::to_string(m.type)));
  }
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

void CacheController::complete(Cb& cb, Word value, Tick latency) {
  sim_.schedule(latency, [cb = std::move(cb), value] { cb(Response{value}); });
}

void CacheController::complete_timed(Cb& cb, Word value, Tick issued_at,
                                     std::string_view histogram) {
  stats_.histogram(histogram).record(sim_.now() - issued_at);
  sim_.schedule(0, [cb = std::move(cb), value] { cb(Response{value}); });
}

void CacheController::send(net::Message m) { net_.send(std::move(m)); }

net::Message CacheController::make(net::MsgType t, BlockId b) const {
  net::Message m;
  m.src = node_;
  m.dst = amap_.home_of(b);
  m.unit = Unit::kMemory;
  m.type = t;
  m.block = b;
  return m;
}

cache::CacheLine& CacheController::install_line(BlockId b, const net::BlockData& data) {
  if (CacheLine* existing = cache_.find(b)) {
    existing->data = data;
    cache_.touch(*existing, sim_.now());
    return *existing;
  }
  CacheLine* victim = cache_.pick_victim(b);
  if (victim == nullptr) {
    // Every frame in the set is unreplaceable — cannot happen with lock
    // lines segregated into the lock cache; treat as a configuration bug.
    throw std::logic_error("CacheController: no victim available");
  }
  if (victim->valid) evict(*victim);
  victim->clear();
  victim->block = b;
  victim->valid = true;
  victim->data = data;
  victim->last_use = sim_.now();
  return *victim;
}

void CacheController::evict(cache::CacheLine& victim) {
  stats_.counter("cache.evictions").add();
  if (victim.msi == MsiState::kModified || victim.dirty_mask != 0) {
    // Only dirty words are written back (per-word dirty bits, Figure 2a).
    auto put = make(MsgType::kPutM, victim.block);
    put.data = victim.data;
    put.dirty_mask = victim.dirty_mask != 0 ? victim.dirty_mask
                                            : net::full_block_mask(config_.block_words);
    send(std::move(put));
    stats_.counter("cache.writebacks").add();
  }
  if (victim.update_bit) {
    // Replacement cancels the read-update subscription (paper 4.1).
    send(make(MsgType::kResetUpdate, victim.block));
    stats_.counter("cache.ru_evict_unsubscribe").add();
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, victim.block,
                             1, 0);
  }
  if (victim.msi != MsiState::kInvalid) {
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, victim.block,
                             static_cast<std::uint8_t>(victim.msi),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
  }
  victim.clear();
}

void CacheController::fire_line_change(BlockId b) {
  auto it = change_waiters_.find(b);
  if (it == change_waiters_.end()) return;
  auto waiters = std::move(it->second);
  change_waiters_.erase(it);
  for (auto& w : waiters) w();
}

void CacheController::wait_line_change(Addr a, std::function<void()> cb) {
  change_waiters_[amap_.block_of(a)].push_back(std::move(cb));
}

void CacheController::wait_word_change(Addr a, Word last_seen, std::function<void()> cb) {
  const BlockId b = amap_.block_of(a);
  const CacheLine* line = cache_.find(b);
  if (line == nullptr || line->data[amap_.word_of(a)] != last_seen) {
    // Already changed (or invalidated) since the caller's last read: wake
    // immediately — waiting would risk missing the final wakeup.
    sim_.schedule(0, std::move(cb));
    return;
  }
  change_waiters_[b].push_back(std::move(cb));
}

// ---------------------------------------------------------------------------
// READ / WRITE (semantics depend on the data protocol)
// ---------------------------------------------------------------------------

void CacheController::op_read(Addr a, Cb cb) {
  const BlockId b = amap_.block_of(a);
  const std::uint32_t w = amap_.word_of(a);
  // Lock-carried data: reads inside a critical section hit the lock line.
  if (CacheLine* ll = lock_cache_.find(b); ll && ll->holds_lock()) {
    stats_.counter("cache.hits").add();
    complete(cb, ll->data[w], kHitLatency);
    return;
  }
  if (CacheLine* line = cache_.find(b)) {
    stats_.counter("cache.hits").add();
    cache_.touch(*line, sim_.now());
    complete(cb, line->data[w], kHitLatency);
    return;
  }
  stats_.counter("cache.misses").add();
  assert(!mshr_.active && "one outstanding demand op per processor");
  mshr_ = Mshr{};
  mshr_.active = true;
  mshr_.issued_at = sim_.now();
  mshr_.block = b;
  mshr_.addr = a;
  mshr_.cb = std::move(cb);
  if (config_.data_protocol == DataProtocol::kWbi) {
    mshr_.kind = MsgType::kGetS;
    send(make(MsgType::kGetS, b));
  } else {
    // Uniprocessor-style fill: fetch the block with no coherence state.
    mshr_.kind = MsgType::kReadGlobal;
    auto m = make(MsgType::kReadGlobal, b);
    m.addr = a;
    m.aux = 1;  // whole block
    send(std::move(m));
  }
}

void CacheController::op_write(Addr a, Word v, Cb cb) {
  const BlockId b = amap_.block_of(a);
  const std::uint32_t w = amap_.word_of(a);
  if (CacheLine* ll = lock_cache_.find(b); ll && ll->holds_lock()) {
    // Write under the lock: modify the lock-carried line; the final unlock
    // writes it back.
    assert(ll->lock == LockState::kHeldWrite && "writes require the exclusive lock");
    ll->data[w] = v;
    ll->dirty_mask |= 1u << w;
    ll->memory_stale = true;
    stats_.counter("cache.hits").add();
    complete(cb, v, kHitLatency);
    return;
  }
  CacheLine* line = cache_.find(b);
  if (config_.data_protocol == DataProtocol::kReadUpdate) {
    // Local (uniprocessor) write; write-allocate on miss.
    if (line) {
      line->data[w] = v;
      line->dirty_mask |= 1u << w;
      cache_.touch(*line, sim_.now());
      stats_.counter("cache.hits").add();
      complete(cb, v, kHitLatency);
      return;
    }
    stats_.counter("cache.misses").add();
    assert(!mshr_.active);
    mshr_ = Mshr{};
    mshr_.active = true;
    mshr_.issued_at = sim_.now();
    mshr_.kind = MsgType::kReadGlobal;
    mshr_.block = b;
    mshr_.addr = a;
    mshr_.wval = v;
    mshr_.local_write = true;
    mshr_.cb = std::move(cb);
    auto m = make(MsgType::kReadGlobal, b);
    m.addr = a;
    m.aux = 1;  // whole block (write-allocate fill)
    send(std::move(m));
    return;
  }
  // WBI coherent write.
  if (line && line->msi == MsiState::kModified) {
    line->data[w] = v;
    line->dirty_mask |= 1u << w;
    cache_.touch(*line, sim_.now());
    stats_.counter("cache.hits").add();
    complete(cb, v, kHitLatency);
    return;
  }
  stats_.counter(line ? "cache.upgrades" : "cache.misses").add();
  assert(!mshr_.active);
  mshr_ = Mshr{};
  mshr_.active = true;
  mshr_.issued_at = sim_.now();
  mshr_.kind = MsgType::kGetX;
  mshr_.block = b;
  mshr_.addr = a;
  mshr_.wval = v;
  mshr_.cb = std::move(cb);
  send(make(MsgType::kGetX, b));
}

void CacheController::op_read_global(Addr a, Cb cb) {
  const BlockId b = amap_.block_of(a);
  assert(!mshr_.active);
  mshr_ = Mshr{};
  mshr_.active = true;
  mshr_.issued_at = sim_.now();
  mshr_.kind = MsgType::kReadGlobal;
  mshr_.block = b;
  mshr_.addr = a;
  mshr_.cb = std::move(cb);
  auto m = make(MsgType::kReadGlobal, b);
  m.addr = a;
  m.aux = 0;  // single word, bypass cache (paper Table 1)
  send(std::move(m));
  stats_.counter("cache.read_global").add();
}

void CacheController::op_write_global(Addr a, Word v, Cb cb) {
  const BlockId b = amap_.block_of(a);
  const std::uint32_t w = amap_.word_of(a);
  stats_.counter("cache.write_global").add();
  // Keep the local copy coherent with what memory will hold; the word is
  // not marked dirty (memory is receiving it).
  if (CacheLine* line = cache_.find(b)) {
    line->data[w] = v;
    line->dirty_mask &= ~(1u << w);
  }
  auto issue = [this, a, b, v, cb = std::move(cb)]() mutable {
    const std::uint64_t txn = wbuf_.enter();
    sim_.trace().wb_event(sim::TraceKind::kWbEnter, sim_.now(), node_, txn);
    auto m = make(MsgType::kWriteGlobal, b);
    m.addr = a;
    m.value = v;
    m.txn = txn;
    send(std::move(m));
    if (config_.consistency == Consistency::kSequential) {
      // SC: the processor stalls until the write is globally performed.
      write_acks_.emplace(txn, std::move(cb));
    } else {
      // BC: the write buffer absorbs it; the processor continues.
      complete(cb, v, kHitLatency);
    }
  };
  // A bounded write buffer applies backpressure when full.
  wbuf_.on_slot(std::move(issue));
}

void CacheController::op_flush_buffer(Cb cb) {
  stats_.counter("cache.flush_buffer").add();
  sim_.trace().wb_event(sim::TraceKind::kWbFlushReq, sim_.now(), node_, wbuf_.pending());
  wbuf_.on_drained([this, cb = std::move(cb)]() mutable {
    sim_.trace().wb_event(sim::TraceKind::kWbFlushDone, sim_.now(), node_, wbuf_.pending());
    complete(cb, 0, kHitLatency);
  });
}

void CacheController::op_rmw(Addr a, net::RmwOp op, Word operand, Cb cb, Word operand2) {
  const BlockId b = amap_.block_of(a);
  assert(!mshr_.active);
  mshr_ = Mshr{};
  mshr_.active = true;
  mshr_.issued_at = sim_.now();
  mshr_.kind = MsgType::kRmw;
  mshr_.block = b;
  mshr_.addr = a;
  mshr_.cb = std::move(cb);
  auto m = make(MsgType::kRmw, b);
  m.addr = a;
  m.value = operand;
  m.value2 = operand2;
  m.aux = static_cast<std::uint8_t>(op);
  send(std::move(m));
  stats_.counter("cache.rmw").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kRmw, node_, b, operand);
}

// ---------------------------------------------------------------------------
// WBI transaction completion
// ---------------------------------------------------------------------------

void CacheController::on_data(const net::Message& m) {
  assert(mshr_.active && mshr_.block == m.block);
  mshr_.data_ok = true;
  mshr_.data = m.data;
  if (m.type == MsgType::kDataX) {
    mshr_.acks_needed = static_cast<std::uint32_t>(m.value);
  } else if (m.type == MsgType::kRmwAck || m.type == MsgType::kReadGlobalAck) {
    mshr_.result = m.value;
  }
  finish_wbi_txn();
}

void CacheController::finish_wbi_txn() {
  if (!mshr_.active || !mshr_.data_ok || mshr_.acks_got < mshr_.acks_needed) return;
  Mshr done = std::move(mshr_);
  mshr_ = Mshr{};
  const std::uint32_t w = amap_.word_of(done.addr);
  // Pre-install MSI state for the transition trace (upgrade vs fill).
  const CacheLine* prior = cache_.find(done.block);
  const auto old_msi = static_cast<std::uint8_t>(prior ? prior->msi : MsiState::kInvalid);
  switch (done.kind) {
    case MsgType::kGetS: {
      CacheLine& line = install_line(done.block, done.data);
      line.msi = MsiState::kShared;
      sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, done.block,
                               old_msi, static_cast<std::uint8_t>(MsiState::kShared));
      complete_timed(done.cb, line.data[w], done.issued_at, "lat.read_miss");
      break;
    }
    case MsgType::kGetX: {
      CacheLine& line = install_line(done.block, done.data);
      line.msi = MsiState::kModified;
      sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, done.block,
                               old_msi, static_cast<std::uint8_t>(MsiState::kModified));
      line.data[w] = done.wval;
      line.dirty_mask |= 1u << w;
      complete_timed(done.cb, done.wval, done.issued_at, "lat.write_miss");
      break;
    }
    case MsgType::kRmw:
      complete_timed(done.cb, done.result, done.issued_at, "lat.rmw");
      break;
    case MsgType::kReadGlobal: {
      if (done.data.count > 0) {
        // Block fill for a local (uniprocessor-style) read or write miss.
        CacheLine& line = install_line(done.block, done.data);
        if (done.local_write) {
          line.data[w] = done.wval;
          line.dirty_mask |= 1u << w;
          complete_timed(done.cb, done.wval, done.issued_at, "lat.write_miss");
        } else {
          complete_timed(done.cb, line.data[w], done.issued_at, "lat.read_miss");
        }
      } else {
        // READ-GLOBAL proper: a single word, bypassing the cache.
        complete_timed(done.cb, done.result, done.issued_at, "lat.read_global");
      }
      break;
    }
    default:
      throw std::logic_error("CacheController: bad MSHR kind");
  }
  // A recall that arrived mid-transaction is serviced now, after the
  // pending store has been performed.
  if (done.recall_pending) {
    perform_recall(cache_.find(done.block), done.recall_aux);
  }
}

void CacheController::on_inv(const net::Message& m) {
  CacheLine* line = cache_.find(m.block);
  if (line) {
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, m.block,
                             static_cast<std::uint8_t>(line->msi),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
    line->clear();
    stats_.counter("cache.invalidated").add();
  }
  // Always acknowledge: the directory's full map may lag a silent
  // replacement, and the requester is counting acks either way.
  net::Message ack;
  ack.src = node_;
  ack.dst = m.who;
  ack.unit = (m.aux == 1) ? Unit::kMemory : Unit::kCache;
  ack.type = MsgType::kInvAck;
  ack.block = m.block;
  send(std::move(ack));
  fire_line_change(m.block);
}

void CacheController::on_recall(const net::Message& m) {
  CacheLine* line = cache_.find(m.block);
  if (mshr_.active && mshr_.block == m.block && mshr_.kind == MsgType::kGetX) {
    // Ownership acquisition in flight for this very block (the directory
    // granted us exclusivity and then processed another request): defer
    // until the pending store completes. Only GetX defers — an
    // outstanding RMW on a block we own would otherwise deadlock against
    // its own recall (the RMW completes at memory only after the recall).
    mshr_.recall_pending = true;
    mshr_.recall_aux = m.aux;
    return;
  }
  if (line == nullptr || line->msi != MsiState::kModified) {
    // Our PutM crossed the recall in flight; the directory will treat the
    // PutM as the recall ack.
    stats_.counter("cache.recall_crossed").add();
    return;
  }
  perform_recall(line, m.aux);
}

void CacheController::perform_recall(cache::CacheLine* line, std::uint8_t aux) {
  assert(line != nullptr && line->msi == MsiState::kModified);
  auto ack = make(MsgType::kRecallAck, line->block);
  ack.data = line->data;
  ack.dirty_mask =
      line->dirty_mask != 0 ? line->dirty_mask : net::full_block_mask(config_.block_words);
  ack.aux = aux;
  send(std::move(ack));
  if (aux == 0) {
    // Downgrade to shared; memory now has the data.
    line->msi = MsiState::kShared;
    line->dirty_mask = 0;
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, line->block,
                             static_cast<std::uint8_t>(MsiState::kModified),
                             static_cast<std::uint8_t>(MsiState::kShared));
  } else {
    const BlockId b = line->block;
    line->clear();
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, b,
                             static_cast<std::uint8_t>(MsiState::kModified),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
    fire_line_change(b);
  }
  stats_.counter("cache.recalled").add();
}

}  // namespace bcsim::core
