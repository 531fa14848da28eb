// perfbench harness: runs one named benchmark workload for a time budget,
// checks every run's outputs, and prints the result line that
// perfbench/run.py passes on (perfbench/README.md has the workloads, the
// metrics and the layer map).
//
//   perfbench_harness --workload W [--seed N] [--seconds S] [--trace 0|1]
//                     [--tiny] [--pin HEX] [--inject-fault F]
//                     [--bcsim PATH] [--revision REV]
//   perfbench_harness --list-pins
//
// Every operation runs in a fresh child process — a forked copy of this
// harness for the machine workloads, the `bcsim diff` CLI for the grid —
// so each one pays the cold-process costs a user's run pays, its peak RSS
// is its own, and a crash counts as a failed operation instead of ending
// the benchmark.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "ref/diff.hpp"
#include "ref/drf_program.hpp"
#include "ref/ref_machine.hpp"
#include "sim/fault_plan.hpp"

extern char** environ;

namespace {

using namespace bcsim;
using Clock = std::chrono::steady_clock;

/// The seed whose machine-workload digests are pinned. Any other seed is
/// held out: determinism and output checks still apply, the pins do not.
constexpr std::uint64_t kDefaultSeed = 42;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median of one end-to-end metric's samples in this run; prints the
/// sample count and quartiles beside it (stdout, before the result line).
double summarize(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v.empty() ? 0.0 : v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  std::printf("samples %-12s n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g\n", name,
              v.size(), at(0), at(0.25), median(v), at(0.75), at(1));
  return median(v);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Workloads

struct MachineBench {
  conf::MachineSpec machine;
  conf::WorkloadSpec workload;
};

struct GridBench {
  std::uint64_t programs = 16;
  std::uint64_t schedules = 16;
  std::uint64_t first_program = 0;
  std::uint32_t nodes = 8;
  std::string inject_fault;  ///< forces divergent cells (self-test)
};

/// Default-seed digests of the full-size machine workloads, each with the
/// bcsim command line that prints the same digest.
struct Pin {
  const char* workload;
  std::uint64_t digest;
  const char* cli;
};
constexpr Pin kPins[] = {
    {"wq-wbi-256", 0x47a1e9d56b79be59ULL,
     "--seed 42 --nodes 256 --machine wbi --workload work-queue --tasks 512 --grain 60"},
    {"solver-ru-256", 0xba999a5e9e19e20bULL,
     "--seed 42 --nodes 256 --machine paper --workload solver --iters 8"},
    {"wq-cbl-1024-mesh", 0x43a8353f67278b62ULL,
     "--seed 42 --nodes 1024 --machine cbl-on-wbi --network mesh --buffer-depth 1 "
     "--dir-limit 8 --dir-overflow coarse --dir-region 32 --workload work-queue "
     "--tasks 4096 --grain 60"},
};

const Pin* find_pin(std::string_view workload) {
  for (const Pin& p : kPins) {
    if (workload == p.workload) return &p;
  }
  return nullptr;
}

/// The machine workloads. `tiny` shrinks each to a self-test size with the
/// same machine flavor, network and directory configuration.
std::optional<MachineBench> machine_bench(std::string_view name, std::uint64_t seed,
                                          bool tiny) {
  MachineBench b;
  b.machine.shards = 1;
  b.machine.seed = seed;
  if (name == "wq-wbi-256") {
    b.machine.nodes = tiny ? 16 : 256;
    b.machine.flavor = "wbi";
    b.workload.kind = "work-queue";
    b.workload.work_queue.total_tasks = tiny ? 32 : 512;
    b.workload.work_queue.grain = 60;
  } else if (name == "solver-ru-256") {
    b.machine.nodes = tiny ? 16 : 256;
    b.machine.flavor = "paper";
    b.workload.kind = "solver";
    b.workload.solver.iterations = tiny ? 2 : 8;
    b.workload.solver.matrix_seed = seed;
  } else if (name == "wq-cbl-1024-mesh") {
    b.machine.nodes = tiny ? 64 : 1024;
    b.machine.flavor = "cbl-on-wbi";
    b.machine.network = "mesh";
    b.machine.buffer_depth = 1;
    b.machine.dir_limit = 8;
    b.machine.dir_overflow = "coarse";
    b.machine.dir_region = tiny ? 8 : 32;
    b.workload.kind = "work-queue";
    b.workload.work_queue.total_tasks = tiny ? 64 : 4096;
    b.workload.work_queue.grain = 60;
  } else {
    return std::nullopt;
  }
  return b;
}

GridBench grid_bench(std::uint64_t seed, bool tiny, const std::string& inject_fault) {
  GridBench g;
  g.programs = tiny ? 2 : 16;
  g.schedules = tiny ? 2 : 16;
  g.first_program = seed;
  g.inject_fault = inject_fault;
  return g;
}

// ---------------------------------------------------------------------------
// Operations in child processes. A child reports "key value" lines over a
// pipe; the parent adds the child's exit status and peak RSS.

using Report = std::map<std::string, std::string>;

struct OpResult {
  Report report;
  std::string failure;  ///< empty when the operation passed its own checks
  double maxrss_mb = 0;
  double wall_s = 0;  ///< parent-side wall time, spawn to reap
};

double num(const Report& r, const std::string& key) {
  const auto it = r.find(key);
  return it == r.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fd);
  return out;
}

Report parse_report(const std::string& text) {
  Report r;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    const std::size_t sp = line.find(' ');
    if (sp != std::string::npos) r[line.substr(0, sp)] = line.substr(sp + 1);
    pos = eol + 1;
  }
  return r;
}

/// Reaps `pid`, fills the status-derived fields of `res`.
void reap(pid_t pid, OpResult& res) {
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  res.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFSIGNALED(status)) {
    res.failure = "killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && res.failure.empty()) {
    res.failure = "exit status " + std::to_string(WEXITSTATUS(status));
  }
}

/// Runs `fn` in a forked child and collects its report. The child's
/// "error" key (a thrown exception or a failed check) marks the operation
/// failed.
OpResult in_child(const std::function<Report()>& fn) {
  OpResult res;
  int fds[2];
  if (pipe(fds) != 0) {
    res.failure = "pipe failed";
    return res;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    res.failure = "fork failed";
    return res;
  }
  if (pid == 0) {
    close(fds[0]);
    Report r;
    try {
      r = fn();
    } catch (const std::exception& e) {
      r["error"] = e.what();
    }
    std::string text;
    for (const auto& [k, v] : r) text += k + " " + v + "\n";
    const char* p = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  res.report = parse_report(read_all(fds[0]));
  reap(pid, res);
  res.wall_s = since(t0);
  if (res.failure.empty() && res.report.count("error") != 0) {
    res.failure = res.report.at("error");
  }
  return res;
}

/// Runs an external command with stdout captured; times it from spawn to
/// reap (the wall time its user waits for).
OpResult run_command(const std::vector<std::string>& argv, std::string* out) {
  OpResult res;
  int fds[2];
  if (pipe(fds) != 0) {
    res.failure = "pipe failed";
    return res;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::fflush(stdout);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    res.failure = "cannot spawn " + argv[0] + ": " + std::strerror(rc);
    return res;
  }
  *out = read_all(fds[0]);
  reap(pid, res);
  res.wall_s = since(t0);
  return res;
}

// ---------------------------------------------------------------------------
// Machine workloads

/// Host time and calls inside one kind of delivery handler. Spans are
/// inclusive: the sends and coroutine resumptions a handler triggers are
/// counted inside it. Deliveries always go through the event queue, so
/// handler spans never nest.
struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

template <typename Controller>
void attach_timed(core::Machine& m, net::Unit unit, Controller& (core::Machine::*get)(NodeId),
                  Span& span) {
  for (NodeId i = 0; i < m.n_nodes(); ++i) {
    Controller* c = &(m.*get)(i);
    m.network().attach(i, unit, [c, &span](const net::Message& msg) {
      const auto t0 = Clock::now();
      c->on_message(msg);
      span.ns += (Clock::now() - t0).count();
      ++span.calls;
    });
  }
}

/// Output checks of one machine run; empty when they pass.
std::string check_outputs(const core::Machine& m, conf::WorkloadInstance& w,
                          const conf::WorkloadSpec& spec) {
  if (!m.all_done() || !m.quiescent()) return "machine not quiescent after the run";
  if (auto* wq = w.work_queue()) {
    const std::uint64_t n = wq->tasks_executed(m);
    if (n != spec.work_queue.total_tasks) {
      return "tasks_executed " + std::to_string(n) + " != budget " +
             std::to_string(spec.work_queue.total_tasks);
    }
  }
  if (auto* s = w.solver()) {
    const std::vector<double> got = s->solution(m);
    const std::vector<double> want = s->reference();
    if (got.size() != want.size()) return "solver: solution length differs from reference";
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (workload::LinearSolverWorkload::pack(got[i]) !=
          workload::LinearSolverWorkload::pack(want[i])) {
        return "solver: x[" + std::to_string(i) + "] is not bit-exact against the host reference";
      }
    }
  }
  return "";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string dbl(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Reports the layer counts and simulated outcome every machine run has.
void report_counts(core::Machine& m, Tick completion, Report& r) {
  const sim::StatsRegistry& st = m.stats();
  r["digest"] = hex(m.stats_digest());
  r["sim.events"] = std::to_string(m.simulator().events_processed());
  r["net.messages"] = std::to_string(st.counter_value("net.messages"));
  r["net.flits"] = std::to_string(st.counter_value("net.flits"));
  r["net.contention_cycles"] = std::to_string(st.counter_value("net.contention_cycles"));
  r["net.inject_stall_cycles"] = std::to_string(st.counter_value("net.inject_stall_cycles"));
  r["net.credit_stall_cycles"] = std::to_string(st.counter_value("net.credit_stall_cycles"));
  r["proto.dir.deferred"] = std::to_string(st.counter_value("dir.deferred"));
  r["proto.dir.coarse_invalidations"] =
      std::to_string(st.counter_value("dir.coarse_invalidations"));
  r["core.cache.misses"] = std::to_string(st.counter_value("cache.misses"));
  r["core.cache.invalidated"] = std::to_string(st.counter_value("cache.invalidated"));
  r["core.proc.ops_retired"] = std::to_string(m.ops_retired_total());
  r["model.completion_ticks"] = std::to_string(completion);
  const sim::Histogram* h = st.find_histogram("lat.read_miss");
  r["model.lat_read_miss_mean"] = dbl(h != nullptr ? h->mean() : 0.0);
}

/// One send of the recorded stream: what Network::send needs to route it.
struct SendRec {
  Tick tick;
  NodeId src;
  NodeId dst;
  BlockId block;
  net::MsgType type;
  net::Unit unit;
  bool payload;  ///< carries a block of data (sets the flit count)
};

std::unique_ptr<net::Network> make_network(const core::MachineConfig& cfg, sim::Simulator& s,
                                           sim::StatsRegistry& st) {
  switch (cfg.network) {
    case core::NetworkKind::kOmega:
      return std::make_unique<net::OmegaNetwork>(s, st, cfg.n_nodes, cfg.switch_delay,
                                                 cfg.net_buffer_depth);
    case core::NetworkKind::kMesh:
      return std::make_unique<net::MeshNetwork>(s, st, cfg.n_nodes, cfg.switch_delay,
                                                cfg.net_buffer_depth);
    default:
      throw std::invalid_argument("net replay covers the omega and mesh networks only");
  }
}

struct ReplayResult {
  double send_s = 0;
  std::uint64_t contention = 0;
};

/// Replays `sends` through Network::send on a standalone network of the
/// machine's geometry and buffer depth, one event per distinct tick. Only
/// the send calls are timed; the delivery events run untimed.
ReplayResult replay_sends(const core::MachineConfig& cfg, const std::vector<SendRec>& sends) {
  sim::Simulator s;
  sim::StatsRegistry st;
  std::unique_ptr<net::Network> network = make_network(cfg, s, st);
  network->set_block_words(cfg.block_words);
  for (NodeId i = 0; i < cfg.n_nodes; ++i) {
    network->attach(i, net::Unit::kCache, [](const net::Message&) {});
    network->attach(i, net::Unit::kMemory, [](const net::Message&) {});
  }
  struct Ctx {
    net::Network* network;
    const std::vector<SendRec>* sends;
    std::uint8_t block_words;
    std::vector<net::Message> batch;
    std::int64_t ns = 0;
  } ctx{network.get(), &sends, static_cast<std::uint8_t>(cfg.block_words), {}, 0};
  std::size_t i = 0;
  while (i < sends.size()) {
    std::size_t j = i;
    while (j < sends.size() && sends[j].tick == sends[i].tick) ++j;
    s.schedule_at(sends[i].tick, [c = &ctx, i, j] {
      c->batch.resize(j - i);
      for (std::size_t k = i; k < j; ++k) {
        const SendRec& r = (*c->sends)[k];
        net::Message& msg = c->batch[k - i];
        msg = net::Message{};
        msg.src = r.src;
        msg.dst = r.dst;
        msg.unit = r.unit;
        msg.type = r.type;
        msg.block = r.block;
        msg.data.count = r.payload ? c->block_words : 0;
      }
      const auto t0 = Clock::now();
      for (net::Message& msg : c->batch) c->network->send(std::move(msg));
      c->ns += (Clock::now() - t0).count();
    });
    i = j;
  }
  s.run();
  return ReplayResult{static_cast<double>(ctx.ns) * 1e-9,
                      st.counter_value("net.contention_cycles")};
}

enum class Probe : std::uint8_t {
  kNone,     ///< the untraced run the end-to-end metrics come from
  kHandlers, ///< delivery handlers re-attached behind timing wrappers
  kRecord,   ///< event trace on, send stream captured and replayed
};

/// One machine operation (runs in a child): set up, run, check, report.
/// For kRecord, `ring` sizes the trace ring and `replay_seconds` bounds
/// the replay repetitions.
Report machine_op(const MachineBench& b, Probe probe, std::size_t ring,
                  double replay_seconds) {
  Report r;
  conf::MachineSpec spec = b.machine;
  if (probe == Probe::kRecord) {
    spec.trace = true;
    spec.trace_capacity = ring;
  }
  const auto t_machine = Clock::now();
  core::Machine m(conf::build_machine(spec));
  const double machine_s = since(t_machine);
  const auto t_workload = Clock::now();
  conf::WorkloadInstance w(m, b.workload);
  const double workload_s = since(t_workload);
  r["setup.machine_s"] = dbl(machine_s);
  r["setup.workload_s"] = dbl(workload_s);
  r["setup.rss_mb"] = dbl(current_rss_mb());

  Span dir;
  Span cache;
  // Per-channel FIFO of delivered (type, payload) pairs: a channel (src,
  // dst, unit) delivers in send order, so the k-th send on a channel is
  // its k-th delivery — that is where the send's payload size comes from.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  if (probe == Probe::kHandlers) {
    attach_timed(m, net::Unit::kMemory, &core::Machine::directory, dir);
    attach_timed(m, net::Unit::kCache, &core::Machine::cache_controller, cache);
  } else if (probe == Probe::kRecord) {
    for (NodeId i = 0; i < m.n_nodes(); ++i) {
      proto::DirectoryController* d = &m.directory(i);
      core::CacheController* c = &m.cache_controller(i);
      const auto note = [&delivered](const net::Message& msg) {
        delivered[net::Network::channel_of(msg)].push_back(static_cast<std::uint8_t>(
            (static_cast<unsigned>(msg.type) << 1) | (msg.data.count > 0 ? 1u : 0u)));
      };
      m.network().attach(i, net::Unit::kMemory, [d, note](const net::Message& msg) {
        note(msg);
        d->on_message(msg);
      });
      m.network().attach(i, net::Unit::kCache, [c, note](const net::Message& msg) {
        note(msg);
        c->on_message(msg);
      });
    }
  }

  const auto t_run = Clock::now();
  const Tick completion = m.run();
  r["run_s"] = dbl(since(t_run));
  report_counts(m, completion, r);
  std::string why = check_outputs(m, w, b.workload);

  if (probe == Probe::kHandlers) {
    r["proto.dir.calls"] = std::to_string(dir.calls);
    r["proto.dir.handler_s"] = dbl(static_cast<double>(dir.ns) * 1e-9);
    r["core.cache.calls"] = std::to_string(cache.calls);
    r["core.cache.handler_s"] = dbl(static_cast<double>(cache.ns) * 1e-9);
    const std::uint64_t messages = m.stats().counter_value("net.messages");
    if (why.empty() && dir.calls + cache.calls != messages) {
      why = "handler wrappers saw " + std::to_string(dir.calls + cache.calls) +
            " deliveries, net.messages is " + std::to_string(messages);
    }
  } else if (probe == Probe::kRecord && why.empty()) {
    const sim::TraceRecorder& tr = m.simulator().trace();
    if (tr.dropped() != 0) {
      // The caller retries once with a ring this large.
      r["trace.recorded"] = std::to_string(tr.recorded());
      why = "trace ring of " + std::to_string(tr.capacity()) + " records overflowed";
    }
    std::vector<SendRec> sends;
    std::unordered_map<std::uint64_t, std::size_t> cursor;
    tr.for_each([&](const sim::TraceRecord& rec) {
      if (rec.kind != sim::TraceKind::kMsgSend || !why.empty()) return;
      net::Message probe_msg;
      probe_msg.src = rec.node;
      probe_msg.dst = rec.peer;
      probe_msg.unit = rec.detail != 0 ? net::Unit::kMemory : net::Unit::kCache;
      const std::uint64_t ch = net::Network::channel_of(probe_msg);
      const auto it = delivered.find(ch);
      std::size_t& k = cursor[ch];
      if (it == delivered.end() || k >= it->second.size() ||
          (it->second[k] >> 1) != rec.code) {
        why = "send stream does not match deliveries on channel " + hex(ch);
        return;
      }
      sends.push_back(SendRec{rec.tick, rec.node, rec.peer, rec.block,
                              static_cast<net::MsgType>(rec.code), probe_msg.unit,
                              (it->second[k] & 1u) != 0});
      ++k;
    });
    delivered.clear();
    if (why.empty()) {
      std::vector<double> replay_s;
      std::uint64_t contention = 0;
      const auto t_replay = Clock::now();
      do {
        const ReplayResult rr = replay_sends(m.config(), sends);
        replay_s.push_back(rr.send_s);
        contention = rr.contention;
      } while (since(t_replay) < replay_seconds);
      r["net.replay_s"] = dbl(median(replay_s));
      r["net.replay_contention_cycles"] = std::to_string(contention);
      r["net.replay_messages"] = std::to_string(sends.size());
      if (contention != m.stats().counter_value("net.contention_cycles")) {
        why = "replayed send stream gives " + std::to_string(contention) +
              " contention cycles, the run had " +
              r["net.contention_cycles"];
      }
    }
  }
  if (!why.empty()) r["error"] = why;
  return r;
}

// ---------------------------------------------------------------------------
// diff-grid

core::MachineConfig cell_config(ref::Flavor f, std::uint32_t nodes, std::uint64_t ss,
                                const sim::FaultPlan& plan) {
  core::MachineConfig cfg = ref::flavor_config(f, nodes, ss);
  core::apply_fault_plan(cfg, plan);
  if (plan.has_net_rules()) cfg.watchdog_interval = 4096;  // as `bcsim diff` does
  return cfg;
}

constexpr ref::Flavor kFlavors[] = {ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl};

ref::DrfGenConfig grid_gen(const GridBench& g) {
  ref::DrfGenConfig gen;
  gen.n_nodes = g.nodes;
  return gen;
}

/// The grid's set-up (runs in a child): generating its programs and
/// constructing every cell's machine, as each `bcsim diff` cell does.
Report grid_setup_op(const GridBench& g) {
  const sim::FaultPlan plan =
      g.inject_fault.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(g.inject_fault);
  const ref::DrfGenConfig gen = grid_gen(g);
  double generate_s = 0;
  double machine_s = 0;
  for (std::uint64_t ps = g.first_program; ps < g.first_program + g.programs; ++ps) {
    const auto t0 = Clock::now();
    const ref::DrfProgram prog = ref::generate_drf_program(ps, gen);
    generate_s += since(t0);
    for (std::uint64_t ss = 0; ss < g.schedules; ++ss) {
      for (const ref::Flavor f : kFlavors) {
        const core::MachineConfig cfg = cell_config(f, g.nodes, ss, plan);
        const auto t1 = Clock::now();
        auto m = std::make_unique<core::Machine>(cfg);
        machine_s += since(t1);
      }
    }
  }
  Report r;
  r["setup.machine_s"] = dbl(machine_s);
  r["setup.workload_s"] = dbl(generate_s);
  r["setup.rss_mb"] = dbl(current_rss_mb());
  return r;
}

/// The grid through the ref layer's public API (runs in a child), each
/// stage timed: program generation, the two SC reference runs the CLI
/// makes per program, and one diff_one per cell.
Report grid_traced_op(const GridBench& g) {
  const sim::FaultPlan plan =
      g.inject_fault.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(g.inject_fault);
  const ref::DrfGenConfig gen = grid_gen(g);
  double generate_s = 0;
  double reference_s = 0;
  double diff_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  const auto t_grid = Clock::now();
  for (std::uint64_t ps = g.first_program; ps < g.first_program + g.programs; ++ps) {
    const auto t0 = Clock::now();
    const ref::DrfProgram prog = ref::generate_drf_program(ps, gen);
    generate_s += since(t0);
    const auto t1 = Clock::now();
    const ref::RefResult ref1 = ref::RefMachine(prog, 1).run();
    const ref::RefResult ref2 = ref::RefMachine(prog, 0x9e3779b97f4a7c15ULL).run();
    reference_s += since(t1);
    const bool ref_ok = !ref1.deadlocked && ref::ref_results_agree(ref1, ref2);
    for (std::uint64_t ss = 0; ss < g.schedules; ++ss) {
      for (const ref::Flavor f : kFlavors) {
        const core::MachineConfig cfg = cell_config(f, g.nodes, ss, plan);
        const auto t2 = Clock::now();
        const ref::Divergence d = ref::diff_one(prog, ref1, f, ss, &cfg);
        diff_s += since(t2);
        ++cells;
        if (!ref_ok || d.found()) ++failed;
      }
    }
  }
  Report r;
  r["run_s"] = dbl(since(t_grid));
  r["ref.generate_s"] = dbl(generate_s);
  r["ref.reference_s"] = dbl(reference_s);
  r["ref.diff_one_s"] = dbl(diff_s);
  r["ref.cells"] = std::to_string(cells);
  r["failed_cells"] = std::to_string(failed);
  return r;
}

std::vector<std::string> grid_command(const std::string& bcsim, const GridBench& g) {
  std::vector<std::string> argv = {bcsim,
                                   "diff",
                                   "--programs",
                                   std::to_string(g.programs),
                                   "--schedules",
                                   std::to_string(g.schedules),
                                   "--first-program",
                                   std::to_string(g.first_program),
                                   "--nodes",
                                   std::to_string(g.nodes)};
  if (!g.inject_fault.empty()) {
    argv.push_back("--inject-fault");
    argv.push_back(g.inject_fault);
  }
  return argv;
}

// ---------------------------------------------------------------------------
// Result assembly

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric and workload it should move
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s", ""},
    {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
};

constexpr const char* kMovesSetup = "setup_s, peak_rss_mb on wq-cbl-1024-mesh";
constexpr const char* kMovesSim = "run_s on solver-ru-256";
constexpr const char* kMovesNet = "run_s on wq-wbi-256 and wq-cbl-1024-mesh";
constexpr const char* kMovesDir = "run_s on wq-wbi-256 (not solver-ru-256)";
constexpr const char* kMovesCore = "run_s on solver-ru-256";
constexpr const char* kMovesRef = "run_s on diff-grid";
constexpr const char* kMovesModel = "nothing: a speed-only change leaves it unchanged";
constexpr const char* kMovesTrace = "nothing: cost of the traced run's wrappers";

constexpr MetricDef kPerLayer[] = {
    {"setup.machine_s", "s", kMovesSetup},
    {"setup.workload_s", "s", kMovesSetup},
    {"setup.rss_mb", "MB", kMovesSetup},
    {"sim.events", "count", kMovesSim},
    {"sim.ns_per_event", "ns", kMovesSim},
    {"sim.residual_s", "s", kMovesSim},
    {"net.messages", "count", kMovesNet},
    {"net.flits", "count", kMovesNet},
    {"net.contention_cycles", "cycles", kMovesNet},
    {"net.inject_stall_cycles", "cycles", kMovesNet},
    {"net.credit_stall_cycles", "cycles", kMovesNet},
    {"net.replay_s", "s", kMovesNet},
    {"net.replay_ns_per_message", "ns", kMovesNet},
    {"net.replay_contention_cycles", "cycles", kMovesNet},
    {"proto.dir.calls", "count", kMovesDir},
    {"proto.dir.handler_s", "s", kMovesDir},
    {"proto.dir.ns_per_call", "ns", kMovesDir},
    {"proto.dir.deferred", "count", kMovesDir},
    {"proto.dir.coarse_invalidations", "count", kMovesDir},
    {"core.cache.calls", "count", kMovesCore},
    {"core.cache.handler_s", "s", kMovesCore},
    {"core.cache.ns_per_call", "ns", kMovesCore},
    {"core.cache.misses", "count", kMovesCore},
    {"core.cache.invalidated", "count", kMovesCore},
    {"core.proc.ops_retired", "count", kMovesCore},
    {"ref.generate_s", "s", kMovesRef},
    {"ref.reference_s", "s", kMovesRef},
    {"ref.diff_one_s", "s", kMovesRef},
    {"ref.cells", "count", kMovesRef},
    {"model.completion_ticks", "cycles", kMovesModel},
    {"model.lat_read_miss_mean", "cycles", kMovesModel},
    {"trace.overhead_s", "s", kMovesTrace},
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;  ///< the first machine run's digest
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    if (problems.size() < 8) problems.push_back(why);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::optional<std::uint64_t> pin;
  std::string inject_fault;
  std::string bcsim;
  std::string revision = "unknown";
};

/// Counts one machine operation, applying the checks that span runs:
/// every run of a seed must give the first run's digest, and the default
/// seed must give the pinned digest.
void tally_machine(Tally& t, const OpResult& op, const std::optional<std::uint64_t>& pin) {
  ++t.attempted;
  std::string why = op.failure;
  const auto it = op.report.find("digest");
  if (why.empty() && it == op.report.end()) why = "run reported no digest";
  if (why.empty()) {
    const std::uint64_t d = std::strtoull(it->second.c_str(), nullptr, 16);
    if (!t.digest) t.digest = d;
    if (d != *t.digest) {
      why = "digest " + hex(d) + " differs from this seed's first run " + hex(*t.digest);
    } else if (pin && d != *pin) {
      why = "digest " + hex(d) + " differs from the pinned " + hex(*pin);
    }
  }
  if (!why.empty()) {
    ++t.failed;
    t.fail(why);
  }
}

void print_host(const Options& o) {
  std::printf(
      "host: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"assertions\": %s, \"revision\": \"%s\"}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      PERFBENCH_BCSIM_ASSERTS ? "true" : "false", o.revision.c_str());
}

void print_result(const Options& o, const Tally& t, const std::map<std::string, double>& values) {
  if (t.digest) std::printf("digest: %s\n", hex(*t.digest).c_str());
  for (const std::string& p : t.problems) std::printf("failed: %s\n", p.c_str());
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) {
      std::printf("layer %-32s %20.6f %-7s moves %s\n", d.name, values.at(d.name), d.unit,
                  d.moves);
    }
  }
  std::string json = "{\"correct\": ";
  json += (t.failed == 0 && t.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " + dbl(values.at(d.name)) +
            ", \"unit\": \"" + d.unit + "\"}";
  };
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Median of one report key over the operations that passed.
double median_of(const std::vector<OpResult>& ops, const char* key) {
  std::vector<double> v;
  for (const OpResult& op : ops) {
    if (op.failure.empty() && op.report.count(key) != 0) v.push_back(num(op.report, key));
  }
  return median(v);
}

void take_medians(const std::vector<OpResult>& ops, std::initializer_list<const char*> keys,
                  std::map<std::string, double>& values) {
  for (const char* k : keys) values[k] = median_of(ops, k);
}

/// Nanoseconds per item; 0 when nothing was counted.
double ns_per(double seconds, double count) { return count > 0 ? seconds * 1e9 / count : 0.0; }

int run_machine_workload(const Options& o, const MachineBench& b) {
  Tally t;
  std::optional<std::uint64_t> pin = o.pin;
  const Pin* p = find_pin(o.workload);
  if (!pin && !o.tiny && o.seed == kDefaultSeed && p != nullptr) pin = p->digest;

  std::map<std::string, double> values;
  for (const MetricDef& d : kPerLayer) values[d.name] = 0;
  const auto start = Clock::now();
  const auto run_plain = [&](double until) {
    std::vector<OpResult> ops;
    do {
      ops.push_back(in_child([&] { return machine_op(b, Probe::kNone, 0, 0); }));
      tally_machine(t, ops.back(), pin);
    } while (since(start) < until);
    return ops;
  };

  if (!o.trace) {
    const std::vector<OpResult> ops = run_plain(o.seconds);
    std::vector<double> run_s;
    std::vector<double> setup_s;
    std::vector<double> rss;
    for (const OpResult& op : ops) {
      if (!op.failure.empty()) continue;
      run_s.push_back(num(op.report, "run_s"));
      setup_s.push_back(num(op.report, "setup.machine_s") + num(op.report, "setup.workload_s"));
      rss.push_back(op.maxrss_mb);
    }
    values["run_s"] = summarize("run_s", run_s);
    values["setup_s"] = summarize("setup_s", setup_s);
    values["peak_rss_mb"] = summarize("peak_rss_mb", rss);
    print_result(o, t, values);
    return 0;
  }

  // Traced: untraced runs first (the baseline the overhead and the per-event
  // cost are taken against), then handler-timed runs, then one recording
  // run whose send stream is replayed until the budget is spent.
  const std::vector<OpResult> plain = run_plain(o.seconds * 0.35);
  std::vector<OpResult> timed;
  do {
    timed.push_back(in_child([&] { return machine_op(b, Probe::kHandlers, 0, 0); }));
    tally_machine(t, timed.back(), pin);
  } while (since(start) < o.seconds * 0.75);
  // About 2.5-3 trace records per message; a ring that still overflows
  // is retried once at the size the run needed.
  std::size_t ring =
      static_cast<std::size_t>(num(plain.front().report, "net.messages")) * 4 + 4096;
  const auto record = [&] {
    const double replay_budget = std::max(0.0, o.seconds - since(start));
    return in_child([&] { return machine_op(b, Probe::kRecord, ring, replay_budget); });
  };
  OpResult rec = record();
  if (rec.report.count("trace.recorded") != 0) {
    ring = static_cast<std::size_t>(num(rec.report, "trace.recorded")) + 4096;
    rec = record();
  }
  tally_machine(t, rec, pin);

  take_medians(plain,
               {"setup.machine_s", "setup.workload_s", "setup.rss_mb", "sim.events",
                "net.messages", "net.flits", "net.contention_cycles", "net.inject_stall_cycles",
                "net.credit_stall_cycles", "proto.dir.deferred",
                "proto.dir.coarse_invalidations", "core.cache.misses", "core.cache.invalidated",
                "core.proc.ops_retired", "model.completion_ticks", "model.lat_read_miss_mean"},
               values);
  take_medians(timed, {"proto.dir.calls", "proto.dir.handler_s", "core.cache.calls",
                       "core.cache.handler_s"},
               values);
  std::vector<double> residual;
  for (const OpResult& op : timed) {
    if (!op.failure.empty()) continue;
    residual.push_back(num(op.report, "run_s") - num(op.report, "proto.dir.handler_s") -
                       num(op.report, "core.cache.handler_s"));
  }
  const double run_s = median_of(plain, "run_s");
  values["sim.residual_s"] = median(residual);
  values["sim.ns_per_event"] = ns_per(run_s, values["sim.events"]);
  values["proto.dir.ns_per_call"] =
      ns_per(values["proto.dir.handler_s"], values["proto.dir.calls"]);
  values["core.cache.ns_per_call"] =
      ns_per(values["core.cache.handler_s"], values["core.cache.calls"]);
  values["trace.overhead_s"] = median_of(timed, "run_s") - run_s;
  if (rec.failure.empty()) {
    values["net.replay_s"] = num(rec.report, "net.replay_s");
    values["net.replay_contention_cycles"] = num(rec.report, "net.replay_contention_cycles");
    values["net.replay_ns_per_message"] =
        ns_per(values["net.replay_s"], num(rec.report, "net.replay_messages"));
  }
  print_result(o, t, values);
  return 0;
}

int run_grid_workload(const Options& o) {
  const GridBench g = grid_bench(o.seed, o.tiny, o.inject_fault);
  const std::uint64_t cells_per_grid = g.programs * g.schedules * std::size(kFlavors);
  const std::vector<std::string> argv = grid_command(o.bcsim, g);
  const std::string ok_line =
      "diff: OK (" + std::to_string(cells_per_grid) + " comparisons";
  Tally t;
  std::optional<std::string> first_output;
  std::vector<OpResult> cli;
  std::vector<OpResult> setups;
  const auto start = Clock::now();

  // One `bcsim diff` invocation: its cells pass only together, since the
  // CLI stops at the first divergent cell without comparing the rest.
  const auto run_cli = [&] {
    std::string out;
    OpResult op = run_command(argv, &out);
    if (op.failure.empty() && out.find(ok_line) == std::string::npos) {
      op.failure = "bcsim diff did not report all " + std::to_string(cells_per_grid) +
                   " cells matching the SC reference";
    }
    if (op.failure.empty()) {
      if (!first_output) first_output = out;
      if (out != *first_output) op.failure = "bcsim diff output differs between runs of one seed";
    }
    t.attempted += cells_per_grid;
    if (!op.failure.empty()) {
      t.failed += cells_per_grid;
      t.fail(op.failure);
    }
    cli.push_back(op);
  };
  const auto run_setup = [&] {
    setups.push_back(in_child([&] { return grid_setup_op(g); }));
    if (!setups.back().failure.empty()) {
      ++t.attempted;
      ++t.failed;
      t.fail("grid set-up: " + setups.back().failure);
    }
  };

  std::map<std::string, double> values;
  for (const MetricDef& d : kPerLayer) values[d.name] = 0;
  std::vector<double> run_s;
  if (!o.trace) {
    do {
      run_cli();
      run_setup();
    } while (since(start) < o.seconds);
    std::vector<double> setup_s;
    std::vector<double> rss;
    for (const OpResult& op : cli) {
      if (!op.failure.empty()) continue;
      run_s.push_back(op.wall_s);
      rss.push_back(op.maxrss_mb);
    }
    for (const OpResult& op : setups) {
      if (op.failure.empty()) {
        setup_s.push_back(num(op.report, "setup.machine_s") + num(op.report, "setup.workload_s"));
      }
    }
    values["run_s"] = summarize("run_s", run_s);
    values["setup_s"] = summarize("setup_s", setup_s);
    values["peak_rss_mb"] = summarize("peak_rss_mb", rss);
    print_result(o, t, values);
    return 0;
  }

  do {
    run_cli();
  } while (since(start) < o.seconds * 0.4);
  run_setup();
  std::vector<OpResult> traced;
  do {
    traced.push_back(in_child([&] { return grid_traced_op(g); }));
    const OpResult& op = traced.back();
    const auto cells = static_cast<std::uint64_t>(num(op.report, "ref.cells"));
    const auto bad = static_cast<std::uint64_t>(num(op.report, "failed_cells"));
    if (!op.failure.empty()) {
      t.attempted += cells_per_grid;
      t.failed += cells_per_grid;
      t.fail("traced grid: " + op.failure);
    } else {
      t.attempted += cells;
      t.failed += bad;
      if (bad != 0) t.fail("traced grid: " + std::to_string(bad) + " divergent cells");
    }
  } while (since(start) < o.seconds);

  for (const OpResult& op : cli) {
    if (op.failure.empty()) run_s.push_back(op.wall_s);
  }
  take_medians(setups, {"setup.machine_s", "setup.workload_s", "setup.rss_mb"}, values);
  take_medians(traced, {"ref.generate_s", "ref.reference_s", "ref.diff_one_s", "ref.cells"},
               values);
  values["trace.overhead_s"] = median_of(traced, "run_s") - median(run_s);
  print_result(o, t, values);
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* s, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, base);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage("bad value '" + std::string(s) + "' for " + flag);
  }
  return v;
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool list_pins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(a, value());
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, value()));
    } else if (a == "--trace") {
      const std::uint64_t v = parse_u64(a, value());
      if (v > 1) usage("--trace takes 0 or 1");
      o.trace = v == 1;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--pin") {
      o.pin = parse_u64(a, value(), 16);
    } else if (a == "--inject-fault") {
      o.inject_fault = value();
    } else if (a == "--bcsim") {
      o.bcsim = value();
    } else if (a == "--revision") {
      o.revision = value();
    } else if (a == "--list-pins") {
      list_pins = true;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (list_pins) {
    for (const Pin& p : kPins) {
      std::printf("%s %s %s\n", p.workload, hex(p.digest).c_str(), p.cli);
    }
    return 0;
  }
  // The benchmark measures the serial kernel; an inherited shard count
  // would change what the grid's machines run on.
  unsetenv("BCSIM_SHARDS");
  if (o.bcsim.empty()) o.bcsim = self_dir() + "/bcsim/tools/bcsim";
  print_host(o);

  if (o.workload == "diff-grid") return run_grid_workload(o);
  if (!o.inject_fault.empty()) usage("--inject-fault applies to diff-grid only");
  const std::optional<MachineBench> b = machine_bench(o.workload, o.seed, o.tiny);
  if (!b) usage("unknown workload '" + o.workload + "'");
  return run_machine_workload(o, *b);
}
