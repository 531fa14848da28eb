// bcsim — command-line experiment driver.
//
// One binary to configure the machine, pick a workload, run it, and dump
// results (human-readable report and/or CSV for plotting). Runs are
// described by a declarative config file, by flags, or both: every flag is
// an alias of one config key (the option tables in src/conf/options.cpp),
// applied after the file and its `-k` overrides, so a later spelling wins
// and a flag and its key are range-checked by the same reader. A
// config-built run is bit-identical to its flag-built equivalent:
//
//   bcsim --nodes 32 --machine paper --workload work-queue --tasks 256
//         --grain 100 --report
//   bcsim run --config configs/paper-baseline.conf
//   bcsim run --config configs/paper-baseline.conf -k machine.nodes=64
//
// Config files (docs/CONFIGS.md): INI sections, `include "file"` layering,
// integer/boolean expressions with $(key) references, `-k key=value`
// overrides, strict unknown-key/type/range errors naming file:line (or
// `<flag NAME>` for a flag). `--dump-config` prints the file's resolved
// table and exits. A malformed flag or value exits 2 before any output. A
// run whose result is wrong — a `bit-exact vs host: NO`, or a work queue
// that did not execute its whole task budget — prints everything, writes
// every output file, and exits 1.
//
// Flags of `bcsim [run]`, `check` and `trace` (defaults in brackets; the
// key each flag aliases is tabled in docs/CONFIGS.md, "Flags are config
// keys"):
//   --config PATH        load a [machine]/[workload] config file
//   -k key=value         override one config key (repeatable; needs --config)
//   --dump-config        print the config file's resolved table and exit
//   --nodes N            processors [16]
//   --machine M          paper | wbi | cbl-on-wbi [paper]
//   --consistency C      sc | bc (paper machine only) [bc]
//   --lock L             cbl | tts | tts-backoff | ticket | mcs [per machine]
//   --barrier B          cbl | central | tree [per machine]
//   --network NET        omega | crossbar | mesh | ideal [omega]
//   --buffer-depth B     per-port fabric buffer depth; 0 = the paper's
//                        infinite buffering, B > 0 = bounded with
//                        credit-based flow control (DESIGN.md, "Bounded
//                        fabric") [0]
//   --dir-limit K        directory pointer budget; 0 = full map [0]
//   --dir-overflow O     broadcast (Dir_k-B) | coarse (region-bit vector)
//                        — what happens past the pointer budget [broadcast]
//   --dir-region R       nodes per coarse-vector region [4]
//   --block-words W      cache line size in words [4]
//   --workload W         work-queue | sync-model | solver | stencil | grid
//                        | fft | trace [work-queue]
//   --tasks N            work-queue tasks; sync-model tasks per processor
//                        = max(1, N / nodes) [256 without --config]
//   --grain G            work-queue / sync-model references per task
//                        [100 without --config]
//   --iters K            solver iterations, stencil/grid sweeps [8 without
//                        --config]
//   --seed S             RNG seed [1]
//   --schedule-seed S    same-tick event tie-break (0 = FIFO order) [0]
//   --check-invariants L off | quiesce | full (docs/TESTING.md) [off]
//   --fault-plan P       arm a fault plan: a registry name (bcsim chaos
//                        lists them on a typo) or an inline spec like
//                        'drop:p=0.05;seed=3' (sim/fault_plan.hpp) [off]
//   --watchdog T         liveness watchdog interval in ticks; armed
//                        automatically when --fault-plan injects network
//                        faults (core/watchdog.hpp) [0 = off]
//   --trace-dump N       trace-tail records dumped with an invariant or
//                        watchdog diagnosis [64]
//   --csv PATH           write all statistics as CSV
//   --report             print the full statistics report
//
// Subcommands (a harness flag aliases the key of the same name in the
// subcommand's section: `bcsim diff --first-program` is
// `diff.first_program`):
//
//   bcsim check [run flags] [--seeds N] [--first-seed S]
//
// Sweeps N schedule seeds (starting at S) across a battery of litmus/fuzz
// programs on both machines with full invariant checking and per-seed
// determinism verification, and prints the smallest failing seed with a
// replay line (then replays it with event tracing on, so the interleaving
// that broke is printed alongside the diagnostic). Exit status 1 on any
// failure. See docs/TESTING.md.
//
//   bcsim trace [run flags] [--trace-out PATH] [--trace-csv PATH]
//               [--trace-capacity N]
//   bcsim trace --record [run flags] [--trace-out PATH]
//
// Without --record: runs the chosen workload with the event-trace recorder
// on and writes the retained records as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto) [trace.json], plus an optional flat CSV.
// With --record: captures the per-processor *primitive* streams (plus the
// machine width and pre-run memory) into a replayable trace file
// [trace.tr]; feeding it back through `--workload trace` (config:
// `source = trace:<file>`) reproduces the run bit-identically — same
// digest, same retired-op counts. See docs/OBSERVABILITY.md, docs/CONFIGS.md.
//
//   bcsim bench [--smoke] [--out PATH] [--rev LABEL] [--config PATH]
//
// Runs the perf-regression harness: substrate microbenchmarks plus one
// end-to-end run per machine flavor, written as BENCH_<rev>.json for
// scripts/bench_compare.py. See docs/BENCHMARKS.md.
//
//   bcsim diff [--flavors wbi,ru,cbl] [--programs N] [--first-program S]
//              [--schedules M] [--first-schedule S] [--nodes N]
//              [--phases P] [--network NET] [--inject-fault F]
//              [--buffer-depth B] [--dir-limit K] [--dir-overflow O]
//              [--dir-region R] [--budget T] [--corpus PATH] [--config PATH]
//
// The differential oracle: sweeps randomized data-race-free programs over
// a (program_seed x schedule_seed) grid, comparing each machine flavor
// against the golden sequentially-consistent reference interpreter. The
// first cell that is not transparent is reported with
// node/op/var/addr/block/tick, replayed with event tracing, and appended
// to --corpus as `<verdict> <replay command>`. --inject-fault
// {eager-flush, empty-gate} deliberately breaks the write-buffer flush
// gate to prove the oracle catches it. Exit 1 on divergence. See
// docs/TESTING.md, "Differential testing".
//
//   bcsim model [--tests a,b,...] [--flavors wbi,ru,cbl]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--nodes N] [--inject-fault F] [--buffer-depth B]
//               [--dir-limit K] [--dir-overflow O] [--dir-region R]
//               [--budget T] [--print-allowed] [--require-complete]
//               [--config PATH]
//
// The model-conformance harness: enumerates each litmus test's
// axiomatically allowed outcome set (src/model/) and sweeps the machine
// over (flavor x network x schedule seed), asserting every observed
// outcome is allowed and reporting per-outcome hit counts.
// --print-allowed dumps the golden allowed-set tables and exits. Exit 1
// on a soundness violation. See docs/TESTING.md, "Model conformance".
//
//   bcsim chaos [--plans p1,p2,...] [--flavors wbi,ru,cbl]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--programs N] [--first-program S] [--nodes N]
//               [--phases P] [--watchdog T] [--stalls K] [--trace-dump N]
//               [--buffer-depth B] [--dir-limit K] [--dir-overflow O]
//               [--dir-region R] [--budget T] [--corpus PATH]
//               [--config PATH]
//
// The unreliable-fabric sweep: every (fault plan x flavor x network x
// fault seed x program seed) cell runs a randomized DRF program with the
// fault plan armed and the liveness watchdog on, then is classified
// *transparent* (bit-identical to the SC reference — retries masked every
// fault), *diagnosed* (terminated with a watchdog/invariant report), or
// *wrong*/*hung* — which fail the sweep, print a replay line, and are
// appended to --corpus (the first also replays with event tracing). Exit
// 1 on any wrong/hung cell. diff and chaos are two presets of one sweep
// over the same oracle cell (tools/bcsim_sweep.cpp). See docs/TESTING.md,
// "Chaos testing & liveness".
//
// Every sweep prints its replay line from the same option table: the
// failing cell plus every option whose value differs from its default. A
// single preset file can carry a [machine]/[workload] description *and*
// tool sections (each consumer ignores the others').
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bcsim_tools.hpp"
#include "conf/conf.hpp"
#include "conf/options.hpp"
#include "conf/scenario.hpp"
#include "conf/strict_parse.hpp"
#include "core/machine.hpp"
#include "workload/trace.hpp"

using namespace bcsim;

namespace {

// ---------------------------------------------------------------------------
// `check` subcommand: schedule-seed sweep with full invariant checking.
//
// Each program in the battery runs under every schedule seed on both
// machines with InvariantLevel::kFull (entry-local checks after every
// directory transition + a whole-machine sweep at the end), verifies its
// functional result, and runs twice to prove the seed is deterministic.
// The sweep is ascending, so the first failure is the smallest seed.
// ---------------------------------------------------------------------------

struct CaseResult {
  bool ok = true;
  std::string detail;
  Tick completion = 0;
  std::uint64_t messages = 0;
};

constexpr Tick kCheckBudget = 100'000'000;

/// Queued-lock counter: the classic mutual-exclusion workout (enqueue,
/// handoff, drain, and re-lock races). The lock's own block carries the
/// counter, so the data rides the grant messages.
CaseResult case_lock_counter(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr lock = 16;
  constexpr int kIters = 6;
  struct Prog {
    Addr lock;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock + 1);
        co_await p.write(lock + 1, v + 1);
        co_await p.unlock(lock);
      }
    }
  } prog{lock};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  const Word want = static_cast<Word>(cfg.n_nodes) * kIters;
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (m.peek_memory(lock + 1) != want) {
    r.ok = false;
    r.detail = "lost increment: counter " + std::to_string(m.peek_memory(lock + 1)) +
               ", expected " + std::to_string(want);
  }
  return r;
}

/// Readers-writer lock: read-holder groups, mid-group reader drop-outs, and
/// writer promotion — the orchestrated (directory-decided) release paths the
/// write-lock counter never touches.
CaseResult case_rw_lock(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr lock = 16;
  constexpr int kIters = 4;
  struct Writer {
    Addr lock;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock + 1);
        co_await p.compute(2);
        co_await p.write(lock + 1, v + 1);
        co_await p.unlock(lock);
      }
    }
  } writer{lock};
  struct Reader {
    Addr lock;
    bool& torn;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.read_lock(lock);
        const Word a = co_await p.read(lock + 1);
        co_await p.compute(1 + (p.id() % 3));  // staggered: mid-group drop-outs
        const Word b = co_await p.read(lock + 1);
        if (a != b) torn = true;  // a writer slipped inside the read group
        co_await p.unlock(lock);
      }
    }
  };
  bool torn = false;
  Reader reader{lock, torn};
  m.spawn(writer(m.processor(0)));
  for (NodeId i = 1; i < cfg.n_nodes; ++i) m.spawn(reader(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (torn) {
    r.ok = false;
    r.detail = "write observed inside a read-holder critical section";
  } else if (m.peek_memory(lock + 1) != kIters) {
    r.ok = false;
    r.detail = "lost increment under readers: counter " +
               std::to_string(m.peek_memory(lock + 1)) + ", expected " +
               std::to_string(kIters);
  }
  return r;
}

/// Message passing under the CP-Synch discipline: data must never trail the
/// flag past a flush. Uses the machine's native operations (subscriptions
/// on read-update, coherent reads on WBI).
CaseResult case_message_passing(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const bool ru = cfg.data_protocol == core::DataProtocol::kReadUpdate;
  const Addr data = 0;  // home 0
  const Addr flag = 4;  // block 1 -> home 1
  Word seen = 0;
  struct Writer {
    Addr data, flag;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      co_await p.compute(50);
      if (ru) {
        co_await p.write_global(data, 42);
        co_await p.flush_buffer();  // CP-Synch: data globally performed first
        co_await p.write_global(flag, 1);
        co_await p.flush_buffer();
      } else {
        co_await p.write(data, 42);  // SC write: performed before it returns
        co_await p.write(flag, 1);
      }
    }
  } writer{data, flag, ru};
  struct Reader {
    Addr data, flag;
    bool ru;
    Word& seen;
    sim::Task operator()(core::Processor& p) const {
      if (ru) {
        co_await p.read_update(flag);
        co_await p.read_update(data);
      }
      for (;;) {
        const Word f = ru ? co_await p.read_update(flag) : co_await p.read(flag);
        if (f == 1) break;
        co_await p.wait_word_change(flag, f);
      }
      seen = ru ? co_await p.read_update(data) : co_await p.read(data);
    }
  } reader{data, flag, ru, seen};
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(cfg.n_nodes - 1)));
  // A couple of bystander subscribers/sharers lengthen the delivery chains.
  struct Bystander {
    Addr data;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      if (ru) {
        co_await p.read_update(data);
      } else {
        co_await p.read(data);
      }
    }
  } bystander{data, ru};
  for (NodeId i = 1; i + 1 < cfg.n_nodes && i <= 2; ++i) {
    m.spawn(bystander(m.processor(i)));
  }
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (seen != 42) {
    r.ok = false;
    r.detail = "stale data (" + std::to_string(seen) + ") observed past the flag";
  }
  return r;
}

/// Hardware barrier separating two phases: every phase-1 write must be
/// visible to every phase-2 reader.
CaseResult case_barrier_phases(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr bar = 16;
  const Addr base = 64;
  const std::uint32_t n = cfg.n_nodes;
  std::vector<Word> sums(n, 0);
  struct Prog {
    Addr bar, base;
    std::uint32_t n;
    std::vector<Word>& sums;
    sim::Task operator()(core::Processor& p) const {
      co_await p.write_global(base + p.id(), p.id() + 1);
      co_await p.flush_buffer();  // barrier is CP-Synch
      co_await p.barrier_arrive(bar, n);
      Word s = 0;
      for (NodeId j = 0; j < n; ++j) s += co_await p.read_global(base + j);
      sums[p.id()] = s;
    }
  } prog{bar, base, n, sums};
  for (NodeId i = 0; i < n; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  const Word want = static_cast<Word>(n) * (n + 1) / 2;
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
    return r;
  }
  for (NodeId i = 0; i < n; ++i) {
    if (sums[i] != want) {
      r.ok = false;
      r.detail = "node " + std::to_string(i) + " summed " + std::to_string(sums[i]) +
                 ", expected " + std::to_string(want) + " after the barrier";
      return r;
    }
  }
  return r;
}

/// Random well-formed program (hierarchical locks, global/local traffic,
/// subscriptions, flushes) — must terminate and quiesce under every
/// schedule with every invariant intact.
CaseResult case_fuzz(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const bool ru = cfg.data_protocol == core::DataProtocol::kReadUpdate;
  struct Prog {
    std::vector<Addr> locks;
    int steps;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      auto& rng = p.rng();
      std::vector<std::size_t> held;
      for (int s = 0; s < steps; ++s) {
        const double dice = rng.next_double();
        if (dice < 0.25) {
          const std::size_t next = held.empty() ? rng.next_below(2) : held.back() + 1;
          if (next < locks.size() && held.size() < 2) {
            co_await p.write_lock(locks[next]);
            held.push_back(next);
          } else {
            co_await p.compute(3);
          }
        } else if (dice < 0.45) {
          if (!held.empty()) {
            const Addr a = locks[held.back()] + 1 + rng.next_below(2);
            const Word v = co_await p.read(a);
            co_await p.write(a, v + 1);
            co_await p.unlock(locks[held.back()]);
            held.pop_back();
          } else {
            co_await p.compute(2);
          }
        } else if (dice < 0.65) {
          const Addr a = 256 + rng.next_below(64);
          if (ru) {
            if (rng.chance(0.5)) {
              co_await p.write_global(a, rng.next_u64());
            } else {
              co_await p.read_update(a);
            }
          } else {
            if (rng.chance(0.5)) {
              co_await p.write(a, rng.next_u64());
            } else {
              co_await p.read(a);
            }
          }
        } else if (dice < 0.75) {
          if (ru && rng.chance(0.5)) {
            co_await p.reset_update(256 + rng.next_below(64));
          } else {
            co_await p.fetch_add(512 + rng.next_below(8), 1);
          }
        } else if (dice < 0.85) {
          co_await p.flush_buffer();
        } else {
          co_await p.compute(1 + rng.next_below(15));
        }
      }
      while (!held.empty()) {
        co_await p.unlock(locks[held.back()]);
        held.pop_back();
      }
      co_await p.flush_buffer();
    }
  } prog{{0, 16, 32}, 60, ru};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  }
  return r;
}

int run_check(const conf::RunOptions& o, const conf::Replay& replay) {
  using CaseFn = CaseResult (*)(const core::MachineConfig&);
  struct Entry {
    const char* machine;
    const char* program;
    CaseFn fn;
  };
  // Both machines: the paper's (read-update + BC + CBL) and the WBI
  // baseline (with CBL synchronization so the lock/barrier engines are
  // exercised against the invalidate directory too).
  const Entry battery[] = {
      {"paper", "lock-counter", case_lock_counter},
      {"paper", "rw-lock", case_rw_lock},
      {"paper", "message-passing", case_message_passing},
      {"paper", "barrier", case_barrier_phases},
      {"paper", "fuzz", case_fuzz},
      {"cbl-on-wbi", "lock-counter", case_lock_counter},
      {"cbl-on-wbi", "rw-lock", case_rw_lock},
      {"cbl-on-wbi", "message-passing", case_message_passing},
      {"cbl-on-wbi", "barrier", case_barrier_phases},
      {"cbl-on-wbi", "fuzz", case_fuzz},
  };
  const auto config_for = [&](const char* machine, std::uint64_t schedule_seed) {
    conf::MachineSpec spec = o.scenario.machine;
    spec.flavor = machine;
    spec.invariants = "full";
    spec.schedule_seed = schedule_seed;
    return conf::build_machine(spec);
  };
  // A usage error (exit 2), as for every malformed flag.
  if (o.seeds == 0) throw conf::UsageError("check needs --seeds >= 1");
  std::printf("check: %llu schedule seeds x %zu programs, nodes=%u, invariants=full\n",
              static_cast<unsigned long long>(o.seeds), std::size(battery),
              o.scenario.machine.nodes);
  for (std::uint64_t s = o.first_seed; s < o.first_seed + o.seeds; ++s) {
    for (const Entry& e : battery) {
      const auto cfg = config_for(e.machine, s);
      CaseResult r1;
      try {
        r1 = e.fn(cfg);
        if (r1.ok) {
          // Same seed, fresh machine: the schedule must replay exactly.
          const CaseResult r2 = e.fn(cfg);
          if (r2.completion != r1.completion || r2.messages != r1.messages) {
            r1.ok = false;
            r1.detail = "nondeterministic: reruns disagree on completion time or traffic";
          }
        }
      } catch (const std::exception& ex) {
        r1.ok = false;
        r1.detail = ex.what();
      }
      if (!r1.ok) {
        std::printf("check: FAILED\n");
        std::printf("  smallest failing schedule seed: %llu\n",
                    static_cast<unsigned long long>(s));
        std::printf("  machine=%s program=%s\n  %s\n", e.machine, e.program,
                    r1.detail.c_str());
        std::printf("  replay: %s\n",
                    replay.line({{"cli.seeds", "1"}, {"cli.first_seed", std::to_string(s)}})
                        .c_str());
        // Replay the failing case with the event-trace recorder on: when
        // the failure is an invariant violation, the machine prints the
        // tail of the interleaving that led there next to the diagnostic
        // (docs/OBSERVABILITY.md). Functional failures replay silently.
        std::printf("  replaying with event tracing enabled...\n");
        std::fflush(stdout);
        auto traced = cfg;
        traced.trace = true;
        traced.trace_capacity = o.scenario.machine.trace_capacity;
        try {
          (void)e.fn(traced);
        } catch (const std::exception&) {
          // The diagnostic and trace tail already went to stderr.
        }
        return 1;
      }
    }
  }
  std::printf("check: OK (seeds %llu..%llu, all invariants held, all results exact)\n",
              static_cast<unsigned long long>(o.first_seed),
              static_cast<unsigned long long>(o.first_seed + o.seeds - 1));
  return 0;
}

/// `bcsim trace --record`: run the scenario with the primitive recorder
/// attached and write a replayable trace file. The machine is configured
/// exactly like a plain run (no event-trace recorder), so the digest
/// printed here is what a replay must reproduce.
int run_record(const conf::RunOptions& o) {
  const conf::MachineSpec& spec = o.scenario.machine;
  core::Machine m(conf::build_machine(spec));
  conf::WorkloadInstance w(m, o.scenario.workload);
  workload::TraceRecorder rec(m);
  const Tick t = m.run();
  rec.detach();
  std::ofstream out(o.trace_out);
  if (!out) {
    std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  rec.trace().write(out);
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", spec.flavor.c_str(),
              w.kind().c_str(), spec.nodes, static_cast<unsigned long long>(spec.seed));
  std::printf("completion: %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("digest:     %016llx\n",
              static_cast<unsigned long long>(m.stats_digest()));
  std::printf("recorded:   %zu primitive records -> %s\n", rec.trace().size(),
              o.trace_out.c_str());
  std::printf("replay:     bcsim --nodes %u --workload trace ... (config: source = "
              "trace:%s)\n",
              spec.nodes, o.trace_out.c_str());
  return 0;
}

int run(const conf::RunOptions& o) {
  const conf::MachineSpec& spec = o.scenario.machine;
  core::Machine m(conf::build_machine(spec));
  conf::WorkloadInstance w(m, o.scenario.workload);

  const Tick t = m.run();
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", spec.flavor.c_str(),
              w.kind().c_str(), spec.nodes, static_cast<unsigned long long>(spec.seed));
  std::printf("completion: %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("network:    %llu messages, %llu contention cycles\n",
              static_cast<unsigned long long>(m.stats().counter_value("net.messages")),
              static_cast<unsigned long long>(
                  m.stats().counter_value("net.contention_cycles")));
  std::printf("digest:     %016llx\n",
              static_cast<unsigned long long>(m.stats_digest()));
  // A wrong result is still reported in full (and every output file is
  // written) before the run exits 1.
  bool correct = true;
  const auto verdict = [&correct](bool ok) {
    correct = correct && ok;
    return ok ? "yes" : "NO";
  };
  if (auto* wq = w.work_queue()) {
    const std::uint64_t executed = wq->tasks_executed(m);
    std::printf("work queue: %llu tasks executed\n", static_cast<unsigned long long>(executed));
    if (executed != wq->total_tasks()) {
      correct = false;
      std::fprintf(stderr, "bcsim: work queue executed %llu of its %u-task budget\n",
                   static_cast<unsigned long long>(executed), wq->total_tasks());
    }
  }
  if (auto* solver = w.solver()) {
    std::printf("solver:     residual %.3e, bit-exact vs host: %s\n", solver->residual(m),
                verdict(solver->solution(m) == solver->reference()));
  }
  if (auto* stencil = w.stencil()) {
    std::printf("stencil:    bit-exact vs host: %s\n",
                verdict(stencil->result(m) == stencil->reference()));
  }
  if (auto* grid = w.grid()) {
    std::printf("grid:       bit-exact vs host: %s\n",
                verdict(grid->result(m) == grid->reference()));
  }
  if (auto* fft = w.fft()) {
    std::printf("fft:        bit-exact vs host: %s\n", verdict(fft->actual(m) == fft->expected()));
  }
  if (spec.trace) {
    const auto& tr = m.simulator().trace();
    std::ofstream out(o.trace_out);
    if (!out) {
      std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    tr.write_chrome_json(out);
    std::printf("trace:      %zu records retained (%llu recorded, %llu dropped) -> %s\n",
                tr.size(), static_cast<unsigned long long>(tr.recorded()),
                static_cast<unsigned long long>(tr.dropped()), o.trace_out.c_str());
    if (!o.trace_csv.empty()) {
      std::ofstream csv(o.trace_csv);
      if (!csv) {
        std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_csv.c_str());
        return 1;
      }
      tr.write_csv(csv);
      std::printf("trace csv:  %s\n", o.trace_csv.c_str());
    }
  }
  if (o.report) {
    m.stats().report(std::cout);
  }
  if (!o.csv.empty()) {
    std::ofstream out(o.csv);
    if (!out) {
      std::fprintf(stderr, "bcsim: cannot write %s\n", o.csv.c_str());
      return 1;
    }
    m.stats().write_csv(out);
    std::printf("stats written to %s\n", o.csv.c_str());
  }
  if (!correct) {
    std::fprintf(stderr, "bcsim: wrong result\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `bcsim [flags]` is `bcsim run [flags]`.
    std::string command = "run";
    int first = 1;
    for (const char* sub : {"run", "check", "trace", "bench", "diff", "model", "chaos"}) {
      if (argc > 1 && std::strcmp(argv[1], sub) == 0) {
        command = sub;
        first = 2;
      }
    }
    const conf::CommandLine cl =
        conf::parse_command_line(command, std::vector<std::string>(argv + first, argv + argc));
    if (cl.dump) {
      cl.table.dump(std::cout);
      return 0;
    }
    const conf::Replay replay(command, cl.table);
    if (command == "bench") return tool::run_bench(conf::read_bench(cl.table));
    if (command == "diff") return tool::run_diff(conf::read_diff(cl.table), replay);
    if (command == "model") return tool::run_model(conf::read_model(cl.table), replay);
    if (command == "chaos") return tool::run_chaos(conf::read_chaos(cl.table), replay);
    conf::RunOptions o = conf::read_run(cl.table);
    if (command == "check") return run_check(o, replay);
    if (command == "trace") {
      // The event-trace recorder serves the Chrome-JSON mode; primitive
      // recording (--record) must leave the machine identical to a plain
      // run so the captured digest matches a replay's.
      o.scenario.machine.trace = !o.record;
      if (o.trace_out.empty()) o.trace_out = o.record ? "trace.tr" : "trace.json";
      if (o.record) return run_record(o);
    }
    return run(o);
  } catch (const conf::UsageError& e) {
    std::fprintf(stderr, "bcsim: %s\n(see the header of tools/bcsim_cli.cpp for flags)\n",
                 e.what());
    return 2;
  } catch (const conf::ConfError& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 1;
  }
}
