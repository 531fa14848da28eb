// Trace-driven simulation (listed as future work in the paper's
// conclusions; implemented here). A trace is a per-processor sequence of
// operations in a simple text format, one record per line:
//
//   <proc> <op> [<addr>] [<value>] [<value2>]
//
//   ops: r  read            w  write          rg read-global
//        wg write-global    ru read-update    xu reset-update
//        fl flush-buffer    rl read-lock      wl write-lock
//        ul unlock          c  compute        ts test-and-set
//        fa fetch-add       sw swap           cx compare-swap
//        ba barrier         wc wait-word-change
//        lc wait-line-change                  pa private-access
//
// `c` and `pa` carry a cycle count in the address column; `cx` carries
// two operands (expected, desired); `ba` carries the participant count;
// `wc` carries the last-seen word. Lines starting with '#' are comments.
//
// Optional header directives make a trace a *complete* run description:
//
//   !nodes <n>        machine width the trace was captured on; replay
//                     spawns a program on every node (idle ones included),
//                     reproducing the captured spawn pattern exactly
//   !m <addr> <value> one word of pre-run memory contents (the state the
//                     workload constructor poked before the run)
//
// TraceRecorder emits every directive and every realized probabilistic
// delay, so a recorded trace replayed on an identically-configured
// machine reproduces the run bit-for-bit — same stats digest, same
// retired-op counts (pinned by tests/test_trace.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "sim/task.hpp"

namespace bcsim::workload {

enum class TraceOp : std::uint8_t {
  kRead, kWrite, kReadGlobal, kWriteGlobal, kReadUpdate, kResetUpdate,
  kFlushBuffer, kReadLock, kWriteLock, kUnlock, kCompute, kTestAndSet, kFetchAdd,
  kSwap, kCompareSwap, kBarrier, kWaitWord, kWaitLine, kPrivate,
};

struct TraceRecord {
  NodeId proc = 0;
  TraceOp op = TraceOp::kRead;
  Addr addr = 0;    ///< address, or cycle count for kCompute / kPrivate
  Word value = 0;   ///< write value / operand / participants / last-seen
  Word value2 = 0;  ///< compare-swap only: the desired value
};

[[nodiscard]] std::string_view to_string(TraceOp op) noexcept;
/// Parses an op mnemonic; throws std::invalid_argument on unknown input.
[[nodiscard]] TraceOp parse_trace_op(std::string_view s);

class Trace {
 public:
  Trace() = default;

  void append(TraceRecord r) { records_.push_back(r); }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Machine width recorded in the `!nodes` header (0: no header — a
  /// hand-written fragment; replay then spawns only nonempty streams).
  [[nodiscard]] std::uint32_t n_nodes() const noexcept { return n_nodes_; }
  void set_n_nodes(std::uint32_t n) noexcept { n_nodes_ = n; }

  /// Pre-run memory contents (`!m` directives), sorted by address.
  [[nodiscard]] const std::vector<std::pair<Addr, Word>>& initial_memory() const noexcept {
    return initial_memory_;
  }
  void set_initial_memory(std::vector<std::pair<Addr, Word>> words) {
    initial_memory_ = std::move(words);
  }

  /// Parses the text format; throws std::invalid_argument naming the line
  /// on malformed input (unknown op/directive, missing or trailing
  /// fields) — a corrupted or truncated trace is diagnosed, not crashed
  /// on.
  static Trace parse(std::istream& in);
  static Trace parse_string(const std::string& text);
  void write(std::ostream& out) const;

  /// Splits into per-processor streams (program order preserved); throws
  /// std::invalid_argument for records outside [0, n_nodes).
  [[nodiscard]] std::vector<std::vector<TraceRecord>> per_processor(
      std::uint32_t n_nodes) const;

 private:
  std::vector<TraceRecord> records_;
  std::uint32_t n_nodes_ = 0;
  std::vector<std::pair<Addr, Word>> initial_memory_;
};

/// Captures the primitive streams of a running machine into a Trace
/// (paper future work: "trace-driven simulation ... is also being
/// investigated" — this is the capture half; replay is TraceWorkload).
/// Construct after the workload (so the memory snapshot sees its pokes)
/// and before run(); detach (or destroy) after. Every primitive has a
/// mnemonic and probabilistic delays record their realized cost, so the
/// captured trace replays bit-identically.
class TraceRecorder {
 public:
  explicit TraceRecorder(core::Machine& machine);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Stops recording and detaches the hooks.
  void detach();

  [[nodiscard]] const Trace& trace() { flush(); return trace_; }
  [[nodiscard]] Trace take() { flush(); return std::move(trace_); }

 private:
  /// Folds the per-node lanes into trace_ (node order; each node's program
  /// order preserved — the only order replay consumes).
  void flush();

  core::Machine* machine_;
  Trace trace_;
  /// One lane per node: a hook appends only to its own node's lane, and
  /// flush() concatenates the lanes in node order. That order is the byte
  /// layout of every recorded trace file.
  std::vector<std::vector<TraceRecord>> per_node_;
};

/// Replays a trace on a machine. With a `!nodes` header the machine width
/// must match and every node gets a program (reproducing the recorded
/// spawn pattern); without one, only processors with records run. The
/// constructor pokes the trace's initial-memory words into the machine.
/// Returns the sum of read values per processor (a cheap checksum tests
/// can assert on).
class TraceWorkload {
 public:
  TraceWorkload(core::Machine& machine, Trace trace);

  void spawn_all(core::Machine& machine);
  [[nodiscard]] const std::vector<Word>& checksums() const noexcept { return checksums_; }

 private:
  sim::Task run(core::Processor& p, const std::vector<TraceRecord>& stream);

  std::vector<std::vector<TraceRecord>> streams_;
  std::vector<Word> checksums_;
  bool spawn_idle_nodes_ = false;
};

}  // namespace bcsim::workload
