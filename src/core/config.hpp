// Machine configuration: every architectural knob in one aggregate.
//
// Defaults follow paper Table 4: 4-word blocks, 1024-block caches, main
// memory cycle = 4 cache cycles, Omega network of 2x2 switches. The paper
// evaluates three orthogonal choices, which appear here as three enums:
// how shared data is kept coherent, how memory consistency is enforced,
// and how locks are implemented.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "sim/fault_plan.hpp"
#include "sim/invariants.hpp"
#include "sim/types.hpp"

namespace bcsim::core {

/// How shared (coherent) data accesses are implemented.
enum class DataProtocol : std::uint8_t {
  kWbi,         ///< write-back invalidate MSI via the central directory (baseline)
  kReadUpdate,  ///< the paper's machine: WRITE-GLOBAL + READ-UPDATE subscriptions
};

/// Memory consistency enforcement for global writes.
enum class Consistency : std::uint8_t {
  kSequential,  ///< each global write stalls the processor until acknowledged
  kBuffered,    ///< the paper's model: writes enter the write buffer;
                ///< only FLUSH-BUFFER (before CP-Synch) stalls
};

/// Mutual-exclusion implementation used by Processor::lock()/unlock().
enum class LockImpl : std::uint8_t {
  kCbl,         ///< the paper's cache-based queued lock (hardware)
  kTts,         ///< test-and-test&set spinning on a cached copy (WBI baseline)
  kTtsBackoff,  ///< TTS with capped exponential backoff (paper's Q-backoff)
  kTicket,      ///< ticket lock (fetch&add based)
  kMcs,         ///< MCS list lock (modern software queue-lock baseline)
};

/// Barrier implementation used by Processor::barrier().
enum class BarrierImpl : std::uint8_t {
  kCbl,      ///< memory-side counter + chained release (hardware path)
  kCentral,  ///< sense-reversing centralized software barrier on shared memory
  kTree,     ///< software combining tree (fan-in 4) over shared memory
};

enum class NetworkKind : std::uint8_t { kOmega, kCrossbar, kMesh, kIdeal };

/// What a limited directory does once a block's sharer count exceeds its
/// pointer budget (`dir_pointer_limit`).
enum class DirOverflow : std::uint8_t {
  kBroadcast,  ///< Dir_k-B: give up precision, broadcast invalidations
  kCoarse,     ///< coarse vector: fall back to region bits (one bit covers
               ///< `dir_region_nodes` nodes); invalidations go to every
               ///< node of every flagged region — conservative, never a
               ///< full broadcast unless all regions are flagged
};

/// Deliberate write-buffer faults for oracle/invariant validation
/// (docs/TESTING.md, "Differential testing"). Production configs use
/// kNone; the others exist so tests can prove the differential oracle
/// catches consistency bugs, not to model any real hardware.
enum class WbFault : std::uint8_t {
  kNone,
  kEagerFlush,  ///< FLUSH-BUFFER completes immediately (no CP-Synch gate):
                ///< global writes may still be in flight past a flush
  kEmptyGate,   ///< the pre-watermark bug: a flush waits for the buffer to
                ///< be fully empty, starving under bounded-capacity refill
};

[[nodiscard]] constexpr std::string_view to_string(DataProtocol p) noexcept {
  return p == DataProtocol::kWbi ? "wbi" : "read-update";
}
[[nodiscard]] constexpr std::string_view to_string(Consistency c) noexcept {
  return c == Consistency::kSequential ? "sc" : "bc";
}
[[nodiscard]] constexpr std::string_view to_string(LockImpl l) noexcept {
  switch (l) {
    case LockImpl::kCbl: return "cbl";
    case LockImpl::kTts: return "tts";
    case LockImpl::kTtsBackoff: return "tts-backoff";
    case LockImpl::kTicket: return "ticket";
    case LockImpl::kMcs: return "mcs";
  }
  return "?";
}
[[nodiscard]] constexpr std::string_view to_string(BarrierImpl b) noexcept {
  switch (b) {
    case BarrierImpl::kCbl: return "cbl";
    case BarrierImpl::kCentral: return "central";
    case BarrierImpl::kTree: return "tree";
  }
  return "?";
}
[[nodiscard]] constexpr std::string_view to_string(DirOverflow o) noexcept {
  return o == DirOverflow::kBroadcast ? "broadcast" : "coarse";
}
[[nodiscard]] constexpr std::string_view to_string(NetworkKind n) noexcept {
  switch (n) {
    case NetworkKind::kOmega: return "omega";
    case NetworkKind::kCrossbar: return "crossbar";
    case NetworkKind::kMesh: return "mesh";
    case NetworkKind::kIdeal: return "ideal";
  }
  return "?";
}

struct MachineConfig {
  std::uint32_t n_nodes = 16;

  // Cache geometry (Table 4: block size 4 words, cache size 1024 blocks).
  // The set count cache_blocks / cache_assoc must be a power of two.
  std::uint32_t block_words = 4;
  std::uint32_t cache_blocks = 1024;
  std::uint32_t cache_assoc = 4;
  std::uint32_t lock_cache_entries = 16;
  std::size_t write_buffer_entries = 0;  ///< 0 = unbounded (Table 4 assumption)
  /// WBI directory precision: 0 = full map; k > 0 = Dir_k-B (k pointers,
  /// invalidations broadcast to every node once more than k sharers
  /// exist). The paper picks pointer-based structures because full maps
  /// do not scale (section 4.1, citing Stenstrom's survey); this knob
  /// quantifies what the cheaper directory costs the baseline.
  std::uint32_t dir_pointer_limit = 0;
  /// Overflow policy for the limited directory. kBroadcast keeps the
  /// historical Dir_k-B behavior; kCoarse switches the overflowed entry to
  /// a coarse region vector (see DirOverflow), the representation the
  /// scalable-directory literature recommends at 1K nodes.
  DirOverflow dir_overflow = DirOverflow::kBroadcast;
  /// Coarse-vector region size: nodes covered by one region bit. Only
  /// meaningful with dir_overflow = kCoarse and dir_pointer_limit > 0.
  std::uint32_t dir_region_nodes = 4;

  // Timing (Table 4: main memory cycle time = 4 cache cycles).
  Tick t_directory = 1;  ///< t_D: directory check
  Tick t_memory = 4;     ///< t_m: memory block access
  Tick switch_delay = 1; ///< per-stage header latency in the Omega network
  Tick ideal_latency = 4;///< latency of the ideal network

  /// Per-port buffer depth of the omega/mesh fabrics: 0 keeps the paper's
  /// infinite buffering (bit-identical to the historical timing); B > 0
  /// models B message slots per switch output port / mesh link with
  /// credit-based flow control — a message enters a full port only after
  /// the oldest of its B occupants has drained and the freed credit has
  /// returned upstream, and the resulting backpressure stalls injection
  /// rather than queueing silently. Crossbar/ideal fabrics ignore it.
  std::uint32_t net_buffer_depth = 0;

  NetworkKind network = NetworkKind::kOmega;
  DataProtocol data_protocol = DataProtocol::kWbi;
  Consistency consistency = Consistency::kSequential;
  LockImpl lock_impl = LockImpl::kTts;
  BarrierImpl barrier_impl = BarrierImpl::kCentral;

  std::uint64_t seed = 1;

  /// Same-tick event tie-break (see EventQueue::set_schedule_seed): 0 fires
  /// same-tick events in scheduling order (the historical behavior, bit-
  /// identical results); any other value picks a different deterministic
  /// serialization of concurrent activity. Sweeping this explores protocol
  /// interleavings without touching the programs.
  std::uint64_t schedule_seed = 0;

  /// How much protocol invariant checking the machine performs on itself
  /// (docs/TESTING.md lists the invariants). kFull re-checks the home
  /// entry after every directory transition.
  sim::InvariantLevel invariants = sim::InvariantLevel::kOff;

  /// Test-only fault injection into every node's write buffer (see
  /// WbFault). The differential-oracle tests use this to verify that a
  /// reordering bug in the flush gate is caught end-to-end.
  WbFault wb_fault = WbFault::kNone;

  /// Declarative fabric fault injection (sim/fault_plan.hpp). An empty
  /// plan leaves the network pristine — the transport layer is not even
  /// installed, so behavior is bit-identical to a build without it. Rules
  /// with network kinds install net::Transport; the legacy write-buffer
  /// kinds map onto `wb_fault` (see apply_fault_plan()).
  sim::FaultPlan fault_plan;

  /// Liveness watchdog (core/watchdog.hpp). 0 disables it (the default:
  /// zero behavior change). When > 0, the machine (a) diagnoses deadlock
  /// if the event queue drains before every program finished or the
  /// protocols failed to quiesce, and (b) slices the run into intervals of
  /// this many ticks, diagnosing livelock after `watchdog_stalls`
  /// consecutive intervals with no retired operations. Both diagnoses dump
  /// the wait-for graph and the trace tail, then throw LivenessViolation.
  Tick watchdog_interval = 0;
  std::uint32_t watchdog_stalls = 3;

  /// Trace-tail size for the automatic dump on InvariantViolation and for
  /// watchdog reports (`--trace-dump N` on the CLI).
  std::size_t trace_dump = 64;

  /// Event-trace recording (docs/OBSERVABILITY.md): when on, every message
  /// send/delivery, cache-line and directory transition, sync op, and
  /// write-buffer event lands in a ring of `trace_capacity` records, and
  /// an invariant violation dumps the tail next to its diagnostic.
  bool trace = false;
  std::size_t trace_capacity = std::size_t{1} << 16;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const {
    if (n_nodes == 0) throw std::invalid_argument("config: n_nodes must be >= 1");
    if (block_words == 0 || block_words > 32) {
      throw std::invalid_argument("config: block_words must be in [1,32]");
    }
    if (cache_assoc == 0 || cache_blocks == 0 || cache_blocks % cache_assoc != 0) {
      throw std::invalid_argument("config: cache_blocks must be a positive multiple of assoc");
    }
    if (const std::uint32_t sets = cache_blocks / cache_assoc; (sets & (sets - 1)) != 0) {
      throw std::invalid_argument("config: cache_blocks / cache_assoc must be a power of two");
    }
    if (lock_cache_entries == 0) {
      throw std::invalid_argument("config: lock_cache_entries must be >= 1");
    }
    if (data_protocol == DataProtocol::kReadUpdate && lock_impl != LockImpl::kCbl) {
      // Software spin locks rely on coherent READ/WRITE, which the
      // read-update machine deliberately does not provide for plain
      // accesses; locks there are the hardware CBL primitives.
      throw std::invalid_argument(
          "config: the read-update machine requires lock_impl=kCbl");
    }
    if (consistency == Consistency::kBuffered && data_protocol == DataProtocol::kWbi) {
      // BC applies to WRITE-GLOBAL traffic, which only the read-update
      // machine generates; allowing the combination would silently measure
      // nothing. (Paper Figures 6-7 compare SC vs BC on the CBL machine.)
      throw std::invalid_argument(
          "config: buffered consistency requires data_protocol=kReadUpdate");
    }
    if (watchdog_stalls == 0) {
      throw std::invalid_argument("config: watchdog_stalls must be >= 1");
    }
    if (dir_region_nodes == 0) {
      throw std::invalid_argument("config: dir_region_nodes must be >= 1");
    }
    if (dir_overflow == DirOverflow::kCoarse && dir_pointer_limit == 0) {
      throw std::invalid_argument(
          "config: dir_overflow=coarse needs dir_pointer_limit > 0 "
          "(a full map never overflows)");
    }
  }
};

/// Applies a resolved fault plan to a config: network rules become the
/// machine's `fault_plan` (installing the transport layer), and the legacy
/// write-buffer kinds map onto `wb_fault` — so one registry name or inline
/// spec configures every deliberate-fault mechanism in the tree.
inline void apply_fault_plan(MachineConfig& cfg, const sim::FaultPlan& plan) {
  cfg.fault_plan = plan;
  for (const auto& r : plan.rules) {
    if (r.kind == sim::FaultKind::kWbEagerFlush) cfg.wb_fault = WbFault::kEagerFlush;
    if (r.kind == sim::FaultKind::kWbEmptyGate) cfg.wb_fault = WbFault::kEmptyGate;
  }
}

}  // namespace bcsim::core
