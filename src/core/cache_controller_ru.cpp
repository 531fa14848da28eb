// Reader-initiated coherence, cache side: READ-UPDATE subscriptions,
// RESET-UPDATE, and chained RuUpdate propagation (paper section 4.1).
#include <cassert>

#include "core/cache_controller.hpp"

namespace bcsim::core {

using cache::CacheLine;
using net::Message;
using net::MsgType;
using net::Unit;

void CacheController::op_read_update(Addr a, Cb cb) {
  const BlockId b = amap_.block_of(a);
  const std::uint32_t w = amap_.word_of(a);
  // "A read-update request is serviced locally by the cache if the update
  // bit of the cache line is already set."
  if (CacheLine* line = cache_.find(b); line && line->update_bit) {
    stats_.counter("cache.hits").add();
    cache_.touch(*line, sim_.now());
    complete(cb, line->data[w], kHitLatency);
    return;
  }
  stats_.counter("cache.read_update").add();
  assert(!mshr_.active);
  mshr_ = Mshr{};
  mshr_.active = true;
  mshr_.issued_at = sim_.now();
  mshr_.kind = MsgType::kReadUpdate;
  mshr_.block = b;
  mshr_.addr = a;
  mshr_.cb = std::move(cb);
  auto m = make(MsgType::kReadUpdate, b);
  m.addr = a;
  send(std::move(m));
}

void CacheController::op_reset_update(Addr a, Cb cb) {
  const BlockId b = amap_.block_of(a);
  stats_.counter("cache.reset_update").add();
  if (CacheLine* line = cache_.find(b); line && line->update_bit) {
    line->update_bit = false;
    line->prev = line->next = kNoNode;
    send(make(MsgType::kResetUpdate, b));
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, b, 1, 0);
  }
  // Completes locally whether or not a subscription existed (idempotent).
  complete(cb, 0, kHitLatency);
}

void CacheController::on_ru_data(const net::Message& m) {
  assert(mshr_.active && mshr_.block == m.block && mshr_.kind == MsgType::kReadUpdate);
  Mshr done = std::move(mshr_);
  mshr_ = Mshr{};
  CacheLine& line = install_line(m.block, m.data);
  line.update_bit = true;
  line.ru_version = m.value;
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, m.block, 0, 1,
                           m.value);
  // New subscribers join at the head of the list: prev = nil, next = the
  // previous head (the directory sends kRuLinkPrev to that node).
  line.prev = kNoNode;
  line.next = m.who;
  complete_timed(done.cb, line.data[amap_.word_of(done.addr)], done.issued_at,
                 "lat.read_update");
}

void CacheController::on_ru_update(const net::Message& m) {
  stats_.counter("cache.ru_updates_received").add();
  if (CacheLine* line = cache_.find(m.block);
      line && line->update_bit && m.value > line->ru_version) {
    // Merge: take updated values for words this node has not locally
    // dirtied (per-word dirty bits prevent lost updates / false sharing).
    // The version check rejects an older snapshot arriving after a newer
    // one (chains for different writes take different hop sequences).
    line->ru_version = m.value;
    for (std::uint32_t w = 0; w < config_.block_words; ++w) {
      if (!(line->dirty_mask & (1u << w))) line->data[w] = m.data[w];
    }
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateApplied, node_, m.block,
                             1, 1, m.value);
    fire_line_change(m.block);
  }
  // Forward down the remaining chain regardless of local state (this node
  // may have unsubscribed while the update was in flight; the data still
  // has to reach the rest of the list).
  if (m.chain.empty() && m.txn != 0 && m.who != kNoNode) {
    // Last hop of a WRITE-GLOBAL propagation: the write is now globally
    // performed; acknowledge the writer so its buffer entry retires.
    Message ack;
    ack.src = node_;
    ack.dst = m.who;
    ack.unit = Unit::kCache;
    ack.type = MsgType::kWriteGlobalAck;
    ack.block = m.block;
    ack.txn = m.txn;
    net_.send_at(sim_.now() + config_.t_directory, std::move(ack));
    return;
  }
  forward_chain(m);
}

void CacheController::forward_chain(const net::Message& m) {
  if (m.chain.empty()) return;
  Message fwd = m;
  fwd.src = node_;
  fwd.dst = fwd.chain.front();
  fwd.chain.erase(fwd.chain.begin());
  // One cache-directory lookup before the hop leaves this node.
  net_.send_at(sim_.now() + config_.t_directory, std::move(fwd));
  stats_.counter("cache.chain_forwards").add();
}

// ---------------------------------------------------------------------------
// barrier (memory-side counter + chained release)
// ---------------------------------------------------------------------------

void CacheController::op_barrier(Addr a, std::uint32_t participants, Cb cb) {
  const BlockId b = amap_.block_of(a);
  stats_.counter("cache.barrier_arrive").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierArrive, node_, b, participants);
  assert(!barrier_cbs_.contains(b));
  barrier_cbs_.emplace(b, std::move(cb));
  auto m = make(MsgType::kBarArrive, b);
  m.addr = a;
  m.value = participants;
  send(std::move(m));
}

void CacheController::on_bar_ack(const net::Message& m) {
  if (m.aux == 1) {
    // We were the last arriver: the barrier opened as we hit it.
    sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierRelease, node_, m.block, m.value);
    auto it = barrier_cbs_.find(m.block);
    assert(it != barrier_cbs_.end());
    Cb cb = std::move(it->second);
    barrier_cbs_.erase(it);
    cb(Response{m.value});
  }
  // Otherwise: arrival recorded; keep waiting for kBarRelease.
}

void CacheController::on_bar_release(const net::Message& m) {
  forward_chain(m);
  auto it = barrier_cbs_.find(m.block);
  if (it == barrier_cbs_.end()) return;  // release overtook a re-arrival race
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierRelease, node_, m.block, m.value);
  Cb cb = std::move(it->second);
  barrier_cbs_.erase(it);
  cb(Response{m.value});
}

}  // namespace bcsim::core
