// Abstract interconnection network.
//
// The network connects n endpoints (one per node; each node hosts a cache
// controller and a memory module slice, selected by Message::unit). send()
// computes the delivery time — including any queuing delay from contention —
// and schedules the destination's handler. Messages between co-located
// units (src == dst) bypass the network with a fixed local latency, which
// models the paper's distributed-memory configuration.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {
struct FaultPlan;
}

namespace bcsim::net {

class Transport;

/// Handler invoked at the destination when a message arrives.
using DeliverFn = std::function<void(const Message&)>;

/// Free-list pool of in-flight Messages. A Message is ~150 bytes (header,
/// inline block payload, chain vector), so carrying one inside every
/// delivery closure used to mean a heap allocation per send and a free per
/// delivery. The pool recycles the objects instead: the closure captures a
/// bare pointer (which also keeps it inside EventFn's inline buffer) and the
/// pool's steady state allocates nothing.
class MessagePool {
 public:
  /// Moves `m` into a pooled slot and returns its stable address.
  Message* acquire(Message&& m) {
    if (free_.empty()) {
      storage_.push_back(std::make_unique<Message>(std::move(m)));
      free_.reserve(storage_.size());  // keeps release() allocation-free
      return storage_.back().get();
    }
    Message* p = free_.back();
    free_.pop_back();
    *p = std::move(m);
    return p;
  }

  /// Returns a message to the pool. `p` must come from acquire().
  void release(Message* p) noexcept {
    p->chain.clear();
    p->data.count = 0;
    free_.push_back(p);  // cannot allocate: capacity covers every slot
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return storage_.size(); }

 private:
  std::vector<std::unique_ptr<Message>> storage_;
  std::vector<Message*> free_;
};

/// Credit ledger for bounded fabric ports (buffer depth B > 0).
///
/// Per port it keeps a ring of the last B slot "credit usable again" times:
/// a message may claim a slot only at or after the ring's oldest entry —
/// exactly the credit-based rule that the B-th-previous occupant must have
/// drained *and its freed credit must have crossed back upstream* before
/// the next header is accepted. Slots are claimed while walking a path and
/// filled in deferred fashion (a slot's drain time is only known once the
/// next hop has accepted the tail); no port repeats within one path
/// (omega is feed-forward, the mesh routes dimension-order), so a deferred
/// fill is always completed before any later lookup of that port.
class CreditLedger {
 public:
  /// Sentinel slot index: "no claim outstanding".
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void init(std::size_t n_ports, std::uint32_t depth) {
    depth_ = depth;
    if (depth == 0) return;
    ring_.assign(n_ports * depth, 0);
    head_.assign(n_ports, 0);
  }
  [[nodiscard]] bool bounded() const noexcept { return depth_ > 0; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

  /// Earliest tick a new message may claim a slot of `port`.
  [[nodiscard]] Tick available_at(std::size_t port) const noexcept {
    return ring_[port * depth_ + head_[port]];
  }
  /// Claims the oldest slot of `port`; fill it with set() once the drain
  /// time is known.
  [[nodiscard]] std::size_t claim(std::size_t port) noexcept {
    std::uint32_t& h = head_[port];
    const std::size_t slot = port * depth_ + h;
    h = (h + 1 == depth_) ? 0 : h + 1;
    return slot;
  }
  /// Records when the claimed slot's credit is usable upstream again.
  void set(std::size_t slot, Tick credit_back) noexcept { ring_[slot] = credit_back; }

 private:
  std::uint32_t depth_ = 0;
  std::vector<Tick> ring_;         ///< [port * depth + slot] -> usable-again
  std::vector<std::uint32_t> head_;  ///< [port] -> oldest slot
};

class Network {
 public:
  Network(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes);
  virtual ~Network();  // out of line: Transport is incomplete here
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the consumer for (node, unit). Must be called for every
  /// endpoint before the first send.
  void attach(NodeId node, Unit unit, DeliverFn fn);

  /// Injects a message; delivery is scheduled on the simulator.
  void send(Message msg);

  /// Injects `msg` at absolute tick `at` (>= now). The deferred injection
  /// event is tied to the message's ordering channel: two delayed sends on
  /// one (src, dst, unit) link inject — and therefore arrive — in the order
  /// they were scheduled, under every schedule seed. Controllers that model
  /// service time before a reply (e.g. a memory access) must use this
  /// rather than a bare simulator callback, or a schedule seed could
  /// reorder their replies on the wire.
  void send_at(Tick at, Message msg);

  /// Ordering channel of a message: one FIFO per (src, dst, unit).
  [[nodiscard]] static std::uint64_t channel_of(const Message& m) noexcept {
    return (static_cast<std::uint64_t>(m.src) << 33) |
           (static_cast<std::uint64_t>(m.dst) << 1) | (m.unit == Unit::kMemory ? 1u : 0u);
  }

  [[nodiscard]] std::uint32_t n_nodes() const noexcept { return n_nodes_; }

  /// Lower bound on the latency of any remote (src != dst) message.
  /// Contention and credit waits only add to it (asserted in
  /// route_and_deliver); the transport acks on this latency.
  [[nodiscard]] virtual Tick min_remote_latency() const noexcept = 0;

  /// Service time (flits) a message of this size occupies a switch port.
  [[nodiscard]] Tick flits_of(const Message& m) const noexcept;

  /// Installs the unreliable-fabric transport layer (net/transport.hpp)
  /// compiled from `plan`'s network rules; `stats` receives the fault and
  /// recovery counters. Without this call the remote path is the
  /// historical fault-free one. Call once, before the first send.
  void install_transport(const sim::FaultPlan& plan, sim::StatsRegistry& stats);

  /// The installed transport, or nullptr on a pristine fabric.
  [[nodiscard]] Transport* transport() const noexcept { return transport_.get(); }

  /// One-look fabric state for liveness reports (core/watchdog.cpp):
  /// bounded fabrics print buffer depth, cumulative injection/credit
  /// stalls, and the most backpressured port. Unbounded fabrics print
  /// nothing — there is no credit state to diagnose.
  virtual void fabric_report(std::ostream&) const {}

  /// Cumulative cycles injection stalled waiting for a first-hop credit
  /// (0 on unbounded fabrics).
  [[nodiscard]] std::uint64_t inject_stall_cycles() const noexcept {
    return inject_stall_cycles_;
  }
  /// Cumulative downstream credit-wait cycles (0 on unbounded fabrics).
  [[nodiscard]] std::uint64_t credit_stall_cycles() const noexcept {
    return credit_stall_cycles_;
  }

 protected:
  /// Computes the arrival tick for a message injected now; subclasses model
  /// topology and contention here. Local (src==dst) traffic never reaches
  /// this.
  virtual Tick route(const Message& m, Tick now) = 0;

  /// Charges queuing delay to the contention counter (cached handle; this
  /// sits inside every route() implementation's hot loop).
  void count_contention(Tick waited) noexcept { c_contention_->add(waited); }

  /// Registers the bounded-fabric stall counters. Called by subclasses
  /// only when buffer depth > 0, so depth-0 stats digests stay bit-for-bit
  /// identical to builds that predate bounded buffering.
  void enable_credit_counters();
  /// First-hop credit wait: backpressure reached the injecting node.
  void count_inject_stall(Tick waited) noexcept {
    inject_stall_cycles_ += waited;
    c_inject_stall_->add(waited);
  }
  /// Credit wait at an interior hop.
  void count_credit_stall(Tick waited) noexcept {
    credit_stall_cycles_ += waited;
    c_credit_stall_->add(waited);
  }

  sim::Simulator& simulator_;
  sim::StatsRegistry& stats_;
  Tick block_words_ = 4;  ///< for flit accounting of block payloads

 public:
  void set_block_words(Tick w) noexcept { block_words_ = w; }
  /// Local (same-node) unit-to-unit latency in cycles.
  static constexpr Tick kLocalLatency = 1;

 private:
  /// The transport reuses the private routing/delivery/accounting plumbing
  /// (route(), schedule_delivery(), the remote counters) without widening
  /// the public surface.
  friend class Transport;

  void deliver(const Message& m);
  /// Cold path of the per-type counters: registers "net.msg.<type>" on the
  /// type's first send, so the stats report lists exactly the types a run
  /// actually produced.
  sim::Counter& register_type_counter(MsgType t);
  /// Remote path: charges the remote counters, routes against the shared
  /// contention state, and schedules delivery. With a transport installed
  /// it hands the message over instead.
  void route_and_deliver(Message msg, Tick send_tick);
  /// Pools the message and schedules its delivery event at `arrive` on the
  /// message's ordering channel. Shared by the local path, the remote path
  /// and the transport, whose deliveries may be held back by the reorder
  /// buffer.
  void schedule_delivery(Message msg, Tick arrive);

  std::uint32_t n_nodes_;
  std::unique_ptr<Transport> transport_;
  MessagePool pool_;  ///< in-flight messages
  std::vector<DeliverFn> cache_sinks_;
  std::vector<DeliverFn> memory_sinks_;

  // Counter handles, resolved at construction so the per-message path
  // does no registry lookup.
  sim::Counter* c_messages_;
  sim::Counter* c_sync_;
  sim::Counter* c_data_;
  sim::Counter* c_local_;
  std::array<sim::Counter*, kMsgTypeCount> c_by_type_{};  ///< lazily filled
  sim::Counter* c_remote_;
  sim::Counter* c_flits_;
  sim::Counter* c_contention_;
  sim::Histogram* h_latency_;
  // Bounded-fabric stall accounting; registered lazily (see
  // enable_credit_counters) and null on unbounded fabrics.
  sim::Counter* c_inject_stall_ = nullptr;
  sim::Counter* c_credit_stall_ = nullptr;
  std::uint64_t inject_stall_cycles_ = 0;
  std::uint64_t credit_stall_cycles_ = 0;
};

/// Ideal network: fixed latency, no contention. Used by unit tests (exact
/// timing is easy to predict) and as the "infinite bandwidth" ablation.
class IdealNetwork final : public Network {
 public:
  IdealNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
               Tick latency)
      : Network(simulator, stats, n_nodes), latency_(latency) {}

  [[nodiscard]] Tick min_remote_latency() const noexcept override { return latency_; }

 protected:
  Tick route(const Message&, Tick now) override { return now + latency_; }

 private:
  Tick latency_;
};

/// Multistage Omega network of 2x2 switches (the paper's interconnect).
///
/// Endpoints are padded to the next power of two; k = log2(N) stages with a
/// perfect-shuffle permutation before each stage and destination-tag
/// routing. Each switch output port is a FIFO — infinitely buffered per
/// the paper by default, or `buffer_depth` message slots deep with
/// credit-based flow control (DESIGN.md "Bounded fabric"): a message waits
/// until the port is free (and, when bounded, until a credit is back),
/// then occupies it while it streams through (cut-through). The header
/// advances one stage per `switch_delay` cycles.
class OmegaNetwork final : public Network {
 public:
  /// `buffer_depth` 0 = the paper's infinite per-port buffering (legacy,
  /// bit-identical); B > 0 = B message slots per switch output port with
  /// credit-based flow control. The omega is feed-forward (stage s only
  /// ever feeds stage s+1), so the credit dependency graph is acyclic and
  /// bounded buffers cannot deadlock.
  OmegaNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
               Tick switch_delay = 1, std::uint32_t buffer_depth = 0);

  /// Every remote message crosses all log2(N) stages; contention and the
  /// tail flit only add to that. Bounded buffers only ever *delay* entry
  /// to a port, so the bound survives credits in flight (asserted in
  /// route_and_deliver).
  [[nodiscard]] Tick min_remote_latency() const noexcept override {
    return static_cast<Tick>(stages_) * switch_delay_;
  }

  void fabric_report(std::ostream& os) const override;

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  Tick route_bounded(const Message& m, Tick now, Tick flits);

  std::uint32_t width_;        ///< padded endpoint count (power of two)
  std::uint32_t stages_;       ///< log2(width_)
  Tick switch_delay_;
  std::vector<Tick> port_free_;  ///< [stage * width_ + wire] -> busy-until
  CreditLedger credits_;
  std::vector<std::uint64_t> port_stall_;  ///< per-port credit-wait cycles (bounded only)

  [[nodiscard]] std::uint32_t rotl_bits(std::uint32_t w) const noexcept {
    return ((w << 1) | (w >> (stages_ - 1))) & (width_ - 1);
  }
};

/// 2D mesh with dimension-order (XY) routing: nodes are laid out on a
/// near-square grid; a message first travels along X, then along Y. Each
/// directed link is a FIFO resource (infinite buffering, cut-through).
/// Included as the directly-wired alternative to the Omega network — the
/// paper leaves the interconnect "intentionally unspecified".
class MeshNetwork final : public Network {
 public:
  /// `buffer_depth` as for OmegaNetwork. Dimension-order (XY) routing
  /// admits no cyclic link dependency, so bounded link buffers with
  /// credit flow control cannot deadlock.
  MeshNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
              Tick hop_delay = 1, std::uint32_t buffer_depth = 0);

  [[nodiscard]] std::uint32_t columns() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }

  /// A remote message traverses at least one link. Bounded buffers only
  /// delay link entry, so the bound survives credits in flight.
  [[nodiscard]] Tick min_remote_latency() const noexcept override { return hop_delay_; }

  void fabric_report(std::ostream& os) const override;

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  Tick route_bounded(const Message& m, Tick now, Tick flits);
  /// Directed link leaving (x,y) in direction d (0:+x 1:-x 2:+y 3:-y).
  [[nodiscard]] std::size_t link_index(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t d) const noexcept {
    return (static_cast<std::size_t>(y) * cols_ + x) * 4 + d;
  }

  std::uint32_t cols_;
  std::uint32_t rows_;
  Tick hop_delay_;
  std::vector<Tick> link_free_;
  CreditLedger credits_;
  std::vector<std::uint64_t> port_stall_;  ///< per-link credit-wait cycles (bounded only)
};

/// Single-stage crossbar: contention only at the destination port.
class CrossbarNetwork final : public Network {
 public:
  CrossbarNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
                  Tick latency = 2);

  [[nodiscard]] Tick min_remote_latency() const noexcept override { return latency_; }

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  Tick latency_;
  std::vector<Tick> port_free_;
};

}  // namespace bcsim::net
