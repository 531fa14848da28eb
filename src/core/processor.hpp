// Processor: the coroutine-facing wrapper over the cache controller.
//
// A simulated program is a coroutine that co_awaits these methods; each
// suspends until the memory system completes the operation at the correct
// simulated time. The method set mirrors paper Table 1 plus the atomic RMW
// the software-lock baselines need and a compute() delay for modeling
// execution between references.
//
//   sim::Task program(core::Processor& p) {
//     co_await p.compute(5);
//     Word x = co_await p.read(addr);
//     co_await p.write_global(addr, x + 1);
//     co_await p.flush_buffer();       // before a CP-Synch operation
//   }
#pragma once

#include <cstdint>
#include <functional>

#include "core/cache_controller.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace bcsim::core {

class Processor {
 public:
  Processor(NodeId node, sim::Simulator& simulator, CacheController& cc,
            const MachineConfig& config, std::uint64_t seed)
      : node_(node), sim_(simulator), cc_(cc), config_(config), rng_(seed) {}

  [[nodiscard]] NodeId id() const noexcept { return node_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] CacheController& cache() noexcept { return cc_; }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }

  /// Observer invoked once per issued primitive (trace capture, debugging).
  /// The hook sees program-level operations, not protocol messages. The
  /// fourth argument is the second operand of compare&swap (zero for every
  /// other primitive); every probabilistic delay (private_access) reports
  /// its realized cost, so a captured stream replays with identical timing.
  using PrimitiveHook = std::function<void(PrimitiveOp, Addr, Word, Word)>;
  void set_hook(PrimitiveHook hook) { hook_ = std::move(hook); }
  void clear_hook() { hook_ = nullptr; }

  /// Local computation for `cycles` machine cycles.
  [[nodiscard]] auto compute(Tick cycles) {
    note(PrimitiveOp::kCompute, cycles, 0);
    return sim::delay(sim_, cycles);
  }

  /// A private-data reference with a pre-determined cost: the replay side
  /// of private_access(). Draws nothing from the RNG, so a trace-driven
  /// run reproduces the recorded timing exactly.
  [[nodiscard]] auto private_delay(Tick cost) {
    note(PrimitiveOp::kPrivate, cost, 0);
    return sim::delay(sim_, cost);
  }

  /// A private-data reference, modeled probabilistically per paper Table 4:
  /// hit ratio 0.95 at 1 cycle; a miss pays the local memory round trip.
  /// (Private data never generates coherence traffic, so a probabilistic
  /// model is exact for the metrics the paper reports.)
  [[nodiscard]] auto private_access() {
    const Tick cost = rng_.chance(kPrivateHitRatio)
                          ? 1
                          : 1 + config_.t_directory + config_.t_memory +
                                2 * net::Network::kLocalLatency;
    return private_delay(cost);
  }

  // ---- Table 1 primitives ----
  [[nodiscard]] sim::SimFuture<Word> read(Addr a) {
    note(PrimitiveOp::kRead, a, 0);
    return wrap([&](auto cb) { cc_.op_read(a, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> write(Addr a, Word v) {
    note(PrimitiveOp::kWrite, a, v);
    return wrap([&](auto cb) { cc_.op_write(a, v, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> read_global(Addr a) {
    note(PrimitiveOp::kReadGlobal, a, 0);
    return wrap([&](auto cb) { cc_.op_read_global(a, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> write_global(Addr a, Word v) {
    note(PrimitiveOp::kWriteGlobal, a, v);
    return wrap([&](auto cb) { cc_.op_write_global(a, v, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> read_update(Addr a) {
    note(PrimitiveOp::kReadUpdate, a, 0);
    return wrap([&](auto cb) { cc_.op_read_update(a, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> reset_update(Addr a) {
    note(PrimitiveOp::kResetUpdate, a, 0);
    return wrap([&](auto cb) { cc_.op_reset_update(a, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> flush_buffer() {
    note(PrimitiveOp::kFlushBuffer, 0, 0);
    return wrap([&](auto cb) { cc_.op_flush_buffer(std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> read_lock(Addr a) {
    note(PrimitiveOp::kReadLock, a, 0);
    return wrap([&](auto cb) { cc_.op_lock(a, net::LockMode::kRead, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> write_lock(Addr a) {
    note(PrimitiveOp::kWriteLock, a, 0);
    return wrap([&](auto cb) { cc_.op_lock(a, net::LockMode::kWrite, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> unlock(Addr a) {
    note(PrimitiveOp::kUnlock, a, 0);
    return wrap([&](auto cb) { cc_.op_unlock(a, std::move(cb)); });
  }

  // ---- extensions ----
  [[nodiscard]] sim::SimFuture<Word> rmw(Addr a, net::RmwOp op, Word operand,
                                         Word operand2 = 0) {
    note(rmw_primitive(op), a, operand, operand2);
    return wrap([&](auto cb) { cc_.op_rmw(a, op, operand, std::move(cb), operand2); });
  }
  /// Atomic compare-and-swap: writes `desired` iff the word equals
  /// `expected`; returns the old word either way.
  [[nodiscard]] sim::SimFuture<Word> compare_swap(Addr a, Word expected, Word desired) {
    return rmw(a, net::RmwOp::kCompareSwap, expected, desired);
  }
  [[nodiscard]] sim::SimFuture<Word> test_and_set(Addr a) {
    note(PrimitiveOp::kTestAndSet, a, 1);
    return wrap([&](auto cb) { cc_.op_rmw(a, net::RmwOp::kTestAndSet, 1, std::move(cb)); });
  }
  [[nodiscard]] sim::SimFuture<Word> fetch_add(Addr a, Word delta) {
    note(PrimitiveOp::kFetchAdd, a, delta);
    return wrap([&](auto cb) { cc_.op_rmw(a, net::RmwOp::kFetchAdd, delta, std::move(cb)); });
  }
  /// Hardware barrier arrival (memory-side counter + chained release).
  [[nodiscard]] sim::SimFuture<Word> barrier_arrive(Addr a, std::uint32_t participants) {
    note(PrimitiveOp::kBarrier, a, participants);
    return wrap([&](auto cb) { cc_.op_barrier(a, participants, std::move(cb)); });
  }
  /// Suspends until the cached copy of a's block changes or is invalidated
  /// (spin-wait assist; a cache-hit spin generates no traffic).
  [[nodiscard]] sim::SimFuture<sim::Unit> wait_line_change(Addr a) {
    note(PrimitiveOp::kWaitLine, a, 0);
    sim::SimFuture<sim::Unit> f;
    cc_.wait_line_change(a, [this, r = f.resolver()] {
      ++retired_;
      r(sim::Unit{});
    });
    return f;
  }
  /// Race-free spin wait: resumes when the cached word at `a` differs from
  /// `last_seen` (immediately if it already does).
  [[nodiscard]] sim::SimFuture<sim::Unit> wait_word_change(Addr a, Word last_seen) {
    note(PrimitiveOp::kWaitWord, a, last_seen);
    sim::SimFuture<sim::Unit> f;
    cc_.wait_word_change(a, last_seen, [this, r = f.resolver()] {
      ++retired_;
      r(sim::Unit{});
    });
    return f;
  }

  /// Completed memory/synchronization primitives (not compute delays).
  /// The liveness watchdog reads this between run slices: a machine whose
  /// processors retire nothing for several watchdog intervals while
  /// programs remain unfinished is diagnosed as livelocked.
  [[nodiscard]] std::uint64_t ops_retired() const noexcept { return retired_; }

  static constexpr double kPrivateHitRatio = 0.95;

 private:
  void note(PrimitiveOp op, Addr a, Word v, Word v2 = 0) {
    if (hook_) hook_(op, a, v, v2);
  }

  [[nodiscard]] static PrimitiveOp rmw_primitive(net::RmwOp op) noexcept {
    switch (op) {
      case net::RmwOp::kTestAndSet: return PrimitiveOp::kTestAndSet;
      case net::RmwOp::kFetchAdd: return PrimitiveOp::kFetchAdd;
      case net::RmwOp::kSwap: return PrimitiveOp::kSwap;
      case net::RmwOp::kCompareSwap: return PrimitiveOp::kCompareSwap;
    }
    return PrimitiveOp::kRmw;
  }

  template <typename Fn>
  sim::SimFuture<Word> wrap(Fn&& fn) {
    sim::SimFuture<Word> f;
    fn([this, r = f.resolver()](CacheController::Response resp) {
      ++retired_;
      r(resp.value);
    });
    return f;
  }

  NodeId node_;
  sim::Simulator& sim_;
  CacheController& cc_;
  const MachineConfig& config_;
  sim::Rng rng_;
  PrimitiveHook hook_;
  std::uint64_t retired_ = 0;
};

}  // namespace bcsim::core
