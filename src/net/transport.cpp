#include "net/transport.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>

namespace bcsim::net {

namespace {

/// Decodes Network::channel_of back into its link endpoints.
[[nodiscard]] constexpr NodeId channel_src(std::uint64_t channel) noexcept {
  return static_cast<NodeId>(channel >> 33);
}
[[nodiscard]] constexpr NodeId channel_dst(std::uint64_t channel) noexcept {
  return static_cast<NodeId>((channel >> 1) & 0xffffffffULL);
}

[[nodiscard]] Tick saturating_add(Tick a, Tick b) noexcept {
  return (b > kNever - a) ? kNever : a + b;
}

}  // namespace

Transport::Transport(Network& net, sim::StatsRegistry& stats, const sim::FaultPlan& plan)
    : net_(net),
      sim_(net.simulator_),
      plan_(plan),
      ack_latency_(std::max<Tick>(net.min_remote_latency(), 1)),
      c_drop_(&stats.counter("net.fault.drop")),
      c_dup_(&stats.counter("net.fault.dup")),
      c_delay_(&stats.counter("net.fault.delay")),
      c_corrupt_(&stats.counter("net.fault.corrupt")),
      c_stall_(&stats.counter("net.fault.stall")),
      c_retransmit_(&stats.counter("net.retransmit")),
      c_nack_(&stats.counter("net.nack")),
      c_dup_discard_(&stats.counter("net.dup_discarded")),
      c_gave_up_(&stats.counter("net.gave_up")) {
  std::size_t index = 0;
  for (const sim::FaultRule& r : plan_.rules) {
    const std::size_t idx = index++;
    switch (r.kind) {
      case sim::FaultKind::kWbEagerFlush:
      case sim::FaultKind::kWbEmptyGate:
        continue;  // handled by the write buffer, not the fabric
      case sim::FaultKind::kStall:
        stalls_.push_back(&r);
        continue;
      default:
        break;
    }
    CompiledRule cr;
    cr.rule = &r;
    cr.index = idx;
    if (r.type.empty()) {
      cr.type_ok.fill(true);
    } else if (r.type == "sync" || r.type == "data") {
      const bool want_sync = (r.type == "sync");
      for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
        cr.type_ok[t] = is_sync_message(static_cast<MsgType>(t)) == want_sync;
      }
    } else {
      bool found = false;
      for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
        if (to_string(static_cast<MsgType>(t)) == r.type) {
          cr.type_ok[t] = true;
          found = true;
        }
      }
      if (!found) {
        std::string all;
        for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
          if (!all.empty()) all += ", ";
          all += to_string(static_cast<MsgType>(t));
        }
        throw std::invalid_argument("fault plan: unknown message type '" + r.type +
                                    "' (sync, data, or one of: " + all + ")");
      }
    }
    rules_.push_back(std::move(cr));
  }
}

sim::Rng Transport::lottery(std::size_t rule_index, std::uint64_t channel, std::uint64_t seq,
                            std::uint32_t attempt) const noexcept {
  std::uint64_t h = plan_.seed ^ (0x9e3779b97f4a7c15ULL * (rule_index + 1));
  h = sim::SplitMix64(h).next() ^ channel;
  h = sim::SplitMix64(h).next() ^ seq;
  h = sim::SplitMix64(h).next() ^ attempt;
  return sim::Rng(sim::SplitMix64(h).next());
}

void Transport::journal_push(Tick tick, sim::FaultKind kind, const Message& m,
                             std::uint64_t seq, std::uint32_t attempt) {
  if (journal_.size() == kJournalCapacity) journal_.pop_front();
  journal_.push_back(FaultEvent{tick, kind, m.type, m.src, m.dst, seq, attempt});
}

void Transport::on_send(Message msg, Tick send_tick) {
  const std::uint64_t channel = Network::channel_of(msg);
  Link& link = links_[channel];
  const std::uint64_t seq = link.next_seq++;
  link.unacked.emplace(seq, Pending{std::move(msg), 0, 0});
  transmit(channel, link, seq, send_tick);
}

Tick Transport::stall_adjust(NodeId dst, Tick arrive) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const sim::FaultRule* r : stalls_) {
      if (r->node != dst) continue;
      const Tick end = saturating_add(r->at, r->ticks);
      if (arrive >= r->at && arrive < end) {
        arrive = end;
        c_stall_->add();
        changed = true;
      }
    }
  }
  return arrive;
}

void Transport::transmit(std::uint64_t channel, Link& link, std::uint64_t seq, Tick send_tick) {
  Pending& p = link.unacked.at(seq);
  ++p.attempt;
  const std::uint32_t attempt = p.attempt;
  if (attempt > 1) c_retransmit_->add();
  // Stable copy: accept() below may acknowledge (and erase) the Pending.
  const Message m = p.msg;

  bool dropped = false;
  bool corrupted = false;
  bool duplicated = false;
  Tick extra = 0;
  for (const CompiledRule& cr : rules_) {
    const sim::FaultRule& r = *cr.rule;
    if (!cr.type_ok[static_cast<std::size_t>(m.type)]) continue;
    if (r.src != kNoNode && r.src != m.src) continue;
    if (r.dst != kNoNode && r.dst != m.dst) continue;
    if (send_tick < r.from || send_tick >= r.until) continue;
    sim::Rng rng = lottery(cr.index, channel, seq, attempt);
    if (!rng.chance(r.p)) continue;
    switch (r.kind) {
      case sim::FaultKind::kDrop:
        dropped = true;
        c_drop_->add();
        break;
      case sim::FaultKind::kCorrupt:
        corrupted = true;
        c_corrupt_->add();
        break;
      case sim::FaultKind::kDup:
        duplicated = true;
        c_dup_->add();
        break;
      case sim::FaultKind::kDelay:
        if (extra == 0) extra = 1 + rng.next_below(r.ticks);
        c_delay_->add();
        break;
      default:
        break;
    }
    journal_push(send_tick, r.kind, m, seq, attempt);
  }

  // The primary copy always occupies the fabric (a dropped or corrupted
  // message consumed bandwidth before it died), so routing — which charges
  // port contention — happens regardless of the lottery's outcome.
  const Tick routed = net_.route(m, send_tick);
  net_.c_remote_->add();
  net_.c_flits_->add(net_.flits_of(m));
  const bool lost = dropped || corrupted;
  if (!lost) {
    const Tick arrive = stall_adjust(m.dst, saturating_add(routed, extra));
    net_.h_latency_->record(arrive - send_tick);
    accept(channel, link, seq, Message(m), arrive);
  }
  if (duplicated) {
    // The duplicate forked before the loss point, so it arrives even when
    // the primary copy was dropped; it is routed (and charged) separately.
    const Tick routed2 = net_.route(m, send_tick);
    net_.c_remote_->add();
    net_.c_flits_->add(net_.flits_of(m));
    const Tick arrive2 = stall_adjust(m.dst, routed2);
    net_.h_latency_->record(arrive2 - send_tick);
    accept(channel, link, seq, Message(m), arrive2);
  }
  if (lost) on_lost(channel, link, seq);  // no-op if a duplicate got through
}

void Transport::accept(std::uint64_t channel, Link& link, std::uint64_t seq, Message msg,
                       Tick arrive) {
  if (seq < link.expected || link.buffered.count(seq) != 0) {
    // Already delivered or already waiting in the reorder buffer: the
    // receiver's dedup discards this copy; the arrival still acknowledges
    // the sequence number (stop any retry machinery).
    c_dup_discard_->add();
    link.unacked.erase(seq);
    link.lost.erase(seq);
    return;
  }
  link.lost.erase(seq);
  if (seq == link.expected) {
    // In-order: deliver, then release any consecutive buffered successors.
    // The floor keeps per-link delivery ticks monotone (same-tick pushes on
    // one channel stay FIFO), preserving the in-order guarantee the
    // protocols above are built on.
    Tick t = std::max(arrive, link.floor);
    net_.schedule_delivery(std::move(msg), t);
    link.floor = t;
    link.expected = seq + 1;
    link.unacked.erase(seq);
    auto it = link.buffered.begin();
    while (it != link.buffered.end() && it->first == link.expected) {
      const Tick bt = std::max(it->second.arrive, link.floor);
      net_.schedule_delivery(std::move(it->second.msg), bt);
      link.floor = bt;
      link.expected = it->first + 1;
      it = link.buffered.erase(it);
    }
    return;
  }
  // Out-of-order survivor: hold it in the reorder buffer. The observed gap
  // is the receiver's evidence of loss — NACK the known-lost predecessors
  // for fast retransmission instead of waiting out the sender's timer.
  link.unacked.erase(seq);
  link.buffered.emplace(seq, Buffered{std::move(msg), arrive});
  if (plan_.nack && plan_.max_retries > 0) {
    for (auto it = link.lost.begin(); it != link.lost.end() && it->first < seq;) {
      const std::uint64_t l = it->first;
      it = link.lost.erase(it);
      auto pit = link.unacked.find(l);
      if (pit == link.unacked.end()) continue;
      c_nack_->add();
      const Tick fire_at = saturating_add(arrive, ack_latency_);
      const Tick now = sim_.now();
      schedule_retransmit(channel, l, fire_at > now ? fire_at - now : 1,
                          ++pit->second.timer_gen, false);
    }
  }
}

void Transport::on_lost(std::uint64_t channel, Link& link, std::uint64_t seq) {
  auto it = link.unacked.find(seq);
  if (it == link.unacked.end()) return;
  Pending& p = it->second;
  link.lost.emplace(seq, sim_.now());
  if (plan_.max_retries == 0 || p.attempt > plan_.max_retries) {
    give_up(link, seq);
    return;
  }
  // Retransmit timer: exponential backoff capped at 64x the base timeout,
  // plus seeded jitter so synchronized losses don't retry in lockstep.
  const unsigned exp = std::min<std::uint32_t>(p.attempt - 1, 6);
  sim::Rng rng = lottery(plan_.rules.size() + 1, channel, seq, p.attempt);
  const Tick rto = (plan_.rto_base << exp) + rng.next_below(plan_.rto_base);
  schedule_retransmit(channel, seq, rto, ++p.timer_gen, true);
}

void Transport::give_up(Link& link, std::uint64_t seq) {
  auto it = link.unacked.find(seq);
  if (it == link.unacked.end()) return;
  const Message& m = it->second.msg;
  given_up_.push_back(
      Undeliverable{sim_.now(), m.type, m.block, m.src, m.dst, seq, it->second.attempt});
  c_gave_up_->add();
  link.lost.erase(seq);
  link.unacked.erase(it);
}

void Transport::schedule_retransmit(std::uint64_t channel, std::uint64_t seq, Tick delay,
                                    std::uint64_t gen, bool is_timer) {
  sim_.schedule(delay, [this, channel, seq, gen, is_timer] {
    retransmit_now(channel, seq, gen, is_timer);
  });
}

void Transport::retransmit_now(std::uint64_t channel, std::uint64_t seq, std::uint64_t gen,
                               bool /*is_timer*/) {
  auto lit = links_.find(channel);
  if (lit == links_.end()) return;
  Link& link = lit->second;
  auto it = link.unacked.find(seq);
  if (it == link.unacked.end()) return;        // delivered in the meantime
  if (it->second.timer_gen != gen) return;     // superseded by a newer retransmit
  transmit(channel, link, seq, sim_.now());
}

bool Transport::idle() const noexcept {
  for (const auto& [channel, link] : links_) {
    (void)channel;
    if (!link.unacked.empty() || !link.buffered.empty()) return false;
  }
  return true;
}

void Transport::report(std::ostream& os, std::size_t journal_tail) const {
  if (!given_up_.empty()) {
    os << "transport: " << given_up_.size() << " undeliverable message(s)"
       << (plan_.max_retries == 0 ? " (retries disabled)" : " (retries exhausted)") << ":\n";
    for (const auto& u : given_up_) {
      os << "  " << to_string(u.type) << " " << u.src << "->" << u.dst << " blk=" << u.block
         << " seq=" << u.seq << " after " << u.attempts << " attempt(s), gave up at t=" << u.tick
         << "\n";
    }
  }
  std::vector<std::tuple<NodeId, NodeId, bool, std::size_t, std::size_t>> inflight;
  for (const auto& [channel, link] : links_) {
    if (link.unacked.empty() && link.buffered.empty()) continue;
    inflight.emplace_back(channel_src(channel), channel_dst(channel), (channel & 1) != 0,
                          link.unacked.size(), link.buffered.size());
  }
  std::sort(inflight.begin(), inflight.end());
  for (const auto& [src, dst, mem, unacked, buffered] : inflight) {
    os << "transport: link " << src << "->" << dst << (mem ? "(mem)" : "(cache)") << ": "
       << unacked << " unacked, " << buffered << " reorder-buffered\n";
  }
  if (!journal_.empty()) {
    const std::size_t n = std::min(journal_tail, journal_.size());
    os << "transport: last " << n << " fault event(s):\n";
    for (std::size_t i = journal_.size() - n; i < journal_.size(); ++i) {
      const FaultEvent& e = journal_[i];
      os << "  t=" << e.tick << " " << sim::to_string(e.kind) << " " << to_string(e.type) << " "
         << e.src << "->" << e.dst << " seq=" << e.seq << " attempt=" << e.attempt << "\n";
    }
  }
}

}  // namespace bcsim::net
