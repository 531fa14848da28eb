#include "workload/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bcsim::workload {

using core::Machine;
using core::Processor;

std::string_view to_string(TraceOp op) noexcept {
  switch (op) {
    case TraceOp::kRead: return "r";
    case TraceOp::kWrite: return "w";
    case TraceOp::kReadGlobal: return "rg";
    case TraceOp::kWriteGlobal: return "wg";
    case TraceOp::kReadUpdate: return "ru";
    case TraceOp::kResetUpdate: return "xu";
    case TraceOp::kFlushBuffer: return "fl";
    case TraceOp::kReadLock: return "rl";
    case TraceOp::kWriteLock: return "wl";
    case TraceOp::kUnlock: return "ul";
    case TraceOp::kCompute: return "c";
    case TraceOp::kTestAndSet: return "ts";
    case TraceOp::kFetchAdd: return "fa";
    case TraceOp::kSwap: return "sw";
    case TraceOp::kCompareSwap: return "cx";
    case TraceOp::kBarrier: return "ba";
    case TraceOp::kWaitWord: return "wc";
    case TraceOp::kWaitLine: return "lc";
    case TraceOp::kPrivate: return "pa";
  }
  return "?";
}

TraceOp parse_trace_op(std::string_view s) {
  if (s == "r") return TraceOp::kRead;
  if (s == "w") return TraceOp::kWrite;
  if (s == "rg") return TraceOp::kReadGlobal;
  if (s == "wg") return TraceOp::kWriteGlobal;
  if (s == "ru") return TraceOp::kReadUpdate;
  if (s == "xu") return TraceOp::kResetUpdate;
  if (s == "fl") return TraceOp::kFlushBuffer;
  if (s == "rl") return TraceOp::kReadLock;
  if (s == "wl") return TraceOp::kWriteLock;
  if (s == "ul") return TraceOp::kUnlock;
  if (s == "c") return TraceOp::kCompute;
  if (s == "ts") return TraceOp::kTestAndSet;
  if (s == "fa") return TraceOp::kFetchAdd;
  if (s == "sw") return TraceOp::kSwap;
  if (s == "cx") return TraceOp::kCompareSwap;
  if (s == "ba") return TraceOp::kBarrier;
  if (s == "wc") return TraceOp::kWaitWord;
  if (s == "lc") return TraceOp::kWaitLine;
  if (s == "pa") return TraceOp::kPrivate;
  throw std::invalid_argument("trace: unknown op '" + std::string(s) + "'");
}

namespace {

bool op_has_addr(TraceOp op) { return op != TraceOp::kFlushBuffer; }
bool op_has_value(TraceOp op) {
  switch (op) {
    case TraceOp::kWrite:
    case TraceOp::kWriteGlobal:
    case TraceOp::kFetchAdd:
    case TraceOp::kSwap:
    case TraceOp::kCompareSwap:
    case TraceOp::kBarrier:
    case TraceOp::kWaitWord:
      return true;
    default:
      return false;
  }
}
bool op_has_value2(TraceOp op) { return op == TraceOp::kCompareSwap; }

[[noreturn]] void parse_fail(std::size_t lineno, const std::string& what) {
  throw std::invalid_argument("trace: " + what + " on line " + std::to_string(lineno));
}

}  // namespace

Trace Trace::parse(std::istream& in) {
  Trace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    if (line[first] == '!') {
      std::string directive;
      ls >> directive;
      if (directive == "!nodes") {
        std::uint64_t n = 0;
        if (!(ls >> n) || n == 0) parse_fail(lineno, "malformed !nodes directive");
        t.n_nodes_ = static_cast<std::uint32_t>(n);
      } else if (directive == "!m") {
        Addr a = 0;
        Word v = 0;
        if (!(ls >> a >> v)) parse_fail(lineno, "malformed !m directive");
        t.initial_memory_.emplace_back(a, v);
      } else {
        parse_fail(lineno, "unknown directive '" + directive + "'");
      }
      std::string extra;
      if (ls >> extra) parse_fail(lineno, "trailing text '" + extra + "'");
      continue;
    }
    TraceRecord r;
    std::string op;
    std::uint64_t proc = 0;
    if (!(ls >> proc >> op)) parse_fail(lineno, "malformed record");
    r.proc = static_cast<NodeId>(proc);
    try {
      r.op = parse_trace_op(op);
    } catch (const std::invalid_argument&) {
      parse_fail(lineno, "unknown op '" + op + "'");
    }
    if (op_has_addr(r.op) && !(ls >> r.addr)) parse_fail(lineno, "missing address");
    if (op_has_value(r.op) && !(ls >> r.value)) parse_fail(lineno, "missing value");
    if (op_has_value2(r.op) && !(ls >> r.value2)) {
      parse_fail(lineno, "missing second operand");
    }
    std::string extra;
    if (ls >> extra) parse_fail(lineno, "trailing text '" + extra + "'");
    t.append(r);
  }
  return t;
}

Trace Trace::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

void Trace::write(std::ostream& out) const {
  if (n_nodes_ != 0) out << "!nodes " << n_nodes_ << '\n';
  for (const auto& [a, v] : initial_memory_) out << "!m " << a << ' ' << v << '\n';
  for (const auto& r : records_) {
    out << r.proc << ' ' << to_string(r.op);
    if (op_has_addr(r.op)) out << ' ' << r.addr;
    if (op_has_value(r.op)) out << ' ' << r.value;
    if (op_has_value2(r.op)) out << ' ' << r.value2;
    out << '\n';
  }
}

std::vector<std::vector<TraceRecord>> Trace::per_processor(std::uint32_t n_nodes) const {
  std::vector<std::vector<TraceRecord>> streams(n_nodes);
  for (const auto& r : records_) {
    if (r.proc >= n_nodes) {
      throw std::invalid_argument("trace: record for processor " + std::to_string(r.proc) +
                                  " on a machine with " + std::to_string(n_nodes) + " nodes");
    }
    streams[r.proc].push_back(r);
  }
  return streams;
}

namespace {

/// Maps a primitive-hook event to a trace record. Every primitive now has
/// a mnemonic; only the generic kRmw tag (unused by the Processor, which
/// notes the specific specialization) has no representation.
bool to_record(NodeId proc, core::PrimitiveOp op, Addr a, Word v, Word v2,
               TraceRecord& out) {
  out.proc = proc;
  out.addr = a;
  out.value = v;
  out.value2 = v2;
  switch (op) {
    case core::PrimitiveOp::kRead: out.op = TraceOp::kRead; return true;
    case core::PrimitiveOp::kWrite: out.op = TraceOp::kWrite; return true;
    case core::PrimitiveOp::kReadGlobal: out.op = TraceOp::kReadGlobal; return true;
    case core::PrimitiveOp::kWriteGlobal: out.op = TraceOp::kWriteGlobal; return true;
    case core::PrimitiveOp::kReadUpdate: out.op = TraceOp::kReadUpdate; return true;
    case core::PrimitiveOp::kResetUpdate: out.op = TraceOp::kResetUpdate; return true;
    case core::PrimitiveOp::kFlushBuffer: out.op = TraceOp::kFlushBuffer; return true;
    case core::PrimitiveOp::kReadLock: out.op = TraceOp::kReadLock; return true;
    case core::PrimitiveOp::kWriteLock: out.op = TraceOp::kWriteLock; return true;
    case core::PrimitiveOp::kUnlock: out.op = TraceOp::kUnlock; return true;
    case core::PrimitiveOp::kTestAndSet: out.op = TraceOp::kTestAndSet; return true;
    case core::PrimitiveOp::kFetchAdd: out.op = TraceOp::kFetchAdd; return true;
    case core::PrimitiveOp::kSwap: out.op = TraceOp::kSwap; return true;
    case core::PrimitiveOp::kCompareSwap: out.op = TraceOp::kCompareSwap; return true;
    case core::PrimitiveOp::kBarrier: out.op = TraceOp::kBarrier; return true;
    case core::PrimitiveOp::kWaitWord: out.op = TraceOp::kWaitWord; return true;
    case core::PrimitiveOp::kWaitLine: out.op = TraceOp::kWaitLine; return true;
    case core::PrimitiveOp::kCompute:
      out.op = TraceOp::kCompute;
      return true;  // addr carries the cycle count
    case core::PrimitiveOp::kPrivate:
      out.op = TraceOp::kPrivate;
      return true;  // addr carries the realized cost
    case core::PrimitiveOp::kRmw:
      return false;  // generic tag; the Processor notes the specialization
  }
  return false;
}

}  // namespace

TraceRecorder::TraceRecorder(Machine& machine)
    : machine_(&machine), per_node_(machine.n_nodes()) {
  trace_.set_n_nodes(machine.n_nodes());
  trace_.set_initial_memory(machine.snapshot_memory());
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    machine.processor(i).set_hook(
        [this, i](core::PrimitiveOp op, Addr a, Word v, Word v2) {
          TraceRecord r;
          if (to_record(i, op, a, v, v2, r)) per_node_[i].push_back(r);
        });
  }
}

TraceRecorder::~TraceRecorder() { detach(); }

void TraceRecorder::detach() {
  if (machine_ == nullptr) return;
  for (NodeId i = 0; i < machine_->n_nodes(); ++i) {
    machine_->processor(i).clear_hook();
  }
  machine_ = nullptr;
  flush();
}

void TraceRecorder::flush() {
  for (auto& lane : per_node_) {
    for (const TraceRecord& r : lane) trace_.append(r);
    lane.clear();
  }
}

TraceWorkload::TraceWorkload(Machine& machine, Trace trace)
    : checksums_(machine.n_nodes(), 0) {
  if (trace.n_nodes() != 0 && trace.n_nodes() != machine.n_nodes()) {
    throw std::invalid_argument(
        "trace: recorded on " + std::to_string(trace.n_nodes()) +
        " nodes, replayed on " + std::to_string(machine.n_nodes()));
  }
  spawn_idle_nodes_ = trace.n_nodes() != 0;
  for (const auto& [a, v] : trace.initial_memory()) machine.poke_memory(a, v);
  streams_ = trace.per_processor(machine.n_nodes());
}

sim::Task TraceWorkload::run(Processor& p, const std::vector<TraceRecord>& stream) {
  Word sum = 0;
  for (const auto& r : stream) {
    switch (r.op) {
      case TraceOp::kRead: sum += co_await p.read(r.addr); break;
      case TraceOp::kWrite: co_await p.write(r.addr, r.value); break;
      case TraceOp::kReadGlobal: sum += co_await p.read_global(r.addr); break;
      case TraceOp::kWriteGlobal: co_await p.write_global(r.addr, r.value); break;
      case TraceOp::kReadUpdate: sum += co_await p.read_update(r.addr); break;
      case TraceOp::kResetUpdate: co_await p.reset_update(r.addr); break;
      case TraceOp::kFlushBuffer: co_await p.flush_buffer(); break;
      case TraceOp::kReadLock: co_await p.read_lock(r.addr); break;
      case TraceOp::kWriteLock: co_await p.write_lock(r.addr); break;
      case TraceOp::kUnlock: co_await p.unlock(r.addr); break;
      case TraceOp::kCompute: co_await p.compute(r.addr); break;
      case TraceOp::kTestAndSet: sum += co_await p.test_and_set(r.addr); break;
      case TraceOp::kFetchAdd: sum += co_await p.fetch_add(r.addr, r.value); break;
      case TraceOp::kSwap:
        sum += co_await p.rmw(r.addr, net::RmwOp::kSwap, r.value);
        break;
      case TraceOp::kCompareSwap:
        sum += co_await p.compare_swap(r.addr, r.value, r.value2);
        break;
      case TraceOp::kBarrier:
        co_await p.barrier_arrive(r.addr, static_cast<std::uint32_t>(r.value));
        break;
      case TraceOp::kWaitWord: co_await p.wait_word_change(r.addr, r.value); break;
      case TraceOp::kWaitLine: co_await p.wait_line_change(r.addr); break;
      case TraceOp::kPrivate: co_await p.private_delay(r.addr); break;
    }
  }
  checksums_[p.id()] = sum;
}

void TraceWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    if (spawn_idle_nodes_ || !streams_[i].empty()) {
      machine.spawn(run(machine.processor(i), streams_[i]));
    }
  }
}

}  // namespace bcsim::workload
