// End-to-end protocol tests over the bounded (credit-flow) fabric.
// tests/test_network.cpp pins the credit ledger's exact timings; this file
// checks what actually matters to the machine above it: with per-port
// buffer depth 1 — the harshest legal fabric — every flavor still
// completes, quiesces, matches the SC reference, stays deterministic,
// and honors the memory model's ordering promises.
#include <gtest/gtest.h>

#include <vector>

#include "ref/diff.hpp"
#include "sim/invariants.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Processor;
using test::paper_config;
using test::run_all;
using test::small_config;

constexpr std::uint32_t kDepth = 1;

// The three protocol flavors on a given topology, all at buffer depth 1.
struct FlavorCase {
  const char* name;
  MachineConfig cfg;
  bool paper;
};

std::vector<FlavorCase> bounded_flavors(core::NetworkKind net) {
  auto wbi = small_config(8);
  wbi.network = net;
  wbi.net_buffer_depth = kDepth;
  wbi.lock_impl = core::LockImpl::kTts;
  wbi.barrier_impl = core::BarrierImpl::kCentral;

  auto cbl = wbi;
  cbl.lock_impl = core::LockImpl::kCbl;
  cbl.barrier_impl = core::BarrierImpl::kCbl;

  auto paper = paper_config(8);
  paper.network = net;
  paper.net_buffer_depth = kDepth;

  return {{"wbi", wbi, false}, {"cbl-on-wbi", cbl, false}, {"paper", paper, true}};
}

// Lock-protected shared counter + final barrier: locks, coherent data, and
// enough cross-node traffic to make depth-1 ports actually backpressure.
sim::Task contend(Processor& p, Addr lock, Addr counter, std::uint32_t participants,
                  bool paper_machine) {
  for (int k = 0; k < 4; ++k) {
    co_await p.write_lock(lock);
    if (paper_machine) {
      const Word v = co_await p.read_update(counter);
      co_await p.write_global(counter, v + 1);
      co_await p.flush_buffer();
    } else {
      const Word v = co_await p.read(counter);
      co_await p.write(counter, v + 1);
    }
    co_await p.unlock(lock);
  }
  co_await p.barrier_arrive(32, participants);
}

struct RunFingerprint {
  Tick completion;
  std::uint64_t digest;
};

RunFingerprint run_contend(const MachineConfig& cfg, bool paper) {
  Machine m(cfg);
  const Addr lock = 0;
  const Addr counter = 16;
  for (NodeId i = 0; i < cfg.n_nodes; ++i) {
    m.spawn(contend(m.processor(i), lock, counter, cfg.n_nodes, paper));
  }
  const Tick t = run_all(m);
  const Word got = paper ? m.peek_memory(counter) : m.peek_coherent(counter);
  EXPECT_EQ(got, static_cast<Word>(4 * cfg.n_nodes));
  return {t, m.stats_digest()};
}

// ---------------------------------------------------------------------------
// Depth 1 under contention: every flavor keeps the locked counter exact
// (checked inside run_contend), and a repeated run replays bit-for-bit.
// ---------------------------------------------------------------------------

TEST(BoundedFabric, ContendedCounterIsExactAndDeterministic) {
  for (const auto net : {core::NetworkKind::kOmega, core::NetworkKind::kMesh}) {
    for (const auto& f : bounded_flavors(net)) {
      const auto first = run_contend(f.cfg, f.paper);
      const auto again = run_contend(f.cfg, f.paper);
      EXPECT_EQ(first.completion, again.completion) << f.name << "/" << core::to_string(net);
      EXPECT_EQ(first.digest, again.digest) << f.name << "/" << core::to_string(net);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential oracle at depth 1: backpressure reshuffles timing, never
// outcomes. Every flavor x topology x (program, schedule) cell must be
// indistinguishable from the SC reference.
// ---------------------------------------------------------------------------

TEST(BoundedFabric, DiffGridMatchesScReferenceAtDepthOne) {
  ref::DrfGenConfig gen;
  gen.n_nodes = 8;
  gen.phases = 2;
  for (std::uint64_t ps = 0; ps < 2; ++ps) {
    const ref::DrfProgram prog = ref::generate_drf_program(ps, gen);
    const ref::RefResult sc = ref::RefMachine(prog, 1).run();
    ASSERT_FALSE(sc.deadlocked);
    for (const auto flavor : {ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl}) {
      for (const auto net : {core::NetworkKind::kOmega, core::NetworkKind::kMesh}) {
        MachineConfig cfg = ref::flavor_config(flavor, gen.n_nodes, /*schedule_seed=*/ps);
        cfg.network = net;
        cfg.net_buffer_depth = kDepth;
        const ref::Divergence d =
            ref::diff_one(prog, sc, flavor, ps, &cfg, 100'000'000);
        EXPECT_FALSE(d.found())
            << ref::to_string(flavor) << "/" << core::to_string(net)
            << " ps=ss=" << ps << ": " << d.detail;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Litmus at depth 1: the CP-Synch flush guarantee survives backpressure.
// ---------------------------------------------------------------------------

TEST(BoundedFabric, FlushedMessagePassingStaysOrderedUnderBackpressure) {
  // Writer: data, flush, flag. Reader: spin on flag, then read data. With
  // the flush, no schedule — and no credit-stall pattern — may show the
  // flag without the data.
  for (const auto net : {core::NetworkKind::kOmega, core::NetworkKind::kMesh}) {
    auto cfg = paper_config(8);
    cfg.network = net;
    cfg.net_buffer_depth = kDepth;
    Machine m(cfg);
    const Addr data = 0;   // home module 0
    const Addr flag = 4;   // block 1 -> home module 1
    bool saw_flag = false;
    Word seen = 0;
    struct Reader {
      Addr data, flag;
      bool& saw_flag;
      Word& seen;
      sim::Task operator()(Processor& p) const {
        co_await p.read_update(flag);
        co_await p.read_update(data);
        for (;;) {
          const Word f = co_await p.read_update(flag);
          if (f == 1) break;
          co_await p.wait_word_change(flag, f);
        }
        saw_flag = true;
        seen = co_await p.read_update(data);
      }
    } reader{data, flag, saw_flag, seen};
    struct Writer {
      Addr data, flag;
      sim::Task operator()(Processor& p) const {
        co_await p.compute(100);  // let the reader subscribe
        co_await p.write_global(data, 42);
        co_await p.flush_buffer();  // CP-Synch
        co_await p.write_global(flag, 1);
        co_await p.flush_buffer();
      }
    } writer{data, flag};
    m.spawn(reader(m.processor(1)));
    m.run();
    m.spawn(writer(m.processor(0)));
    run_all(m);
    ASSERT_TRUE(saw_flag) << core::to_string(net);
    EXPECT_EQ(seen, 42u) << core::to_string(net)
                         << ": stale data observed past a flushed flag";
  }
}

// ---------------------------------------------------------------------------
// Fuzz at depth 1 with full invariant checking: random lock/data/sync
// programs quiesce on every flavor.
// ---------------------------------------------------------------------------

sim::Task fuzz_program(Processor& p, Addr lock, bool paper_machine, int steps) {
  auto& rng = p.rng();
  bool held = false;
  for (int s = 0; s < steps; ++s) {
    const double dice = rng.next_double();
    if (dice < 0.2) {
      if (!held) {
        co_await p.write_lock(lock);
        held = true;
      } else {
        co_await p.unlock(lock);
        held = false;
      }
    } else if (dice < 0.6) {
      const Addr a = 256 + rng.next_below(48);
      if (paper_machine) {
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
    } else if (dice < 0.7) {
      co_await p.fetch_add(512 + rng.next_below(8), 1);
    } else if (dice < 0.8) {
      co_await p.flush_buffer();
    } else {
      co_await p.compute(1 + rng.next_below(12));
    }
  }
  if (held) co_await p.unlock(lock);
  co_await p.flush_buffer();
}

TEST(BoundedFabric, FuzzProgramsQuiesceAtDepthOne) {
  for (const auto net : {core::NetworkKind::kOmega, core::NetworkKind::kMesh}) {
    for (auto f : bounded_flavors(net)) {
      f.cfg.invariants = sim::InvariantLevel::kFull;
      for (std::uint64_t seed : {1ull, 2ull}) {
        auto cfg = f.cfg;
        cfg.seed = seed;
        Machine m(cfg);
        for (NodeId i = 0; i < cfg.n_nodes; ++i) {
          m.spawn(fuzz_program(m.processor(i), /*lock=*/0, f.paper, 60));
        }
        run_all(m);  // asserts all_done + quiescent + invariants
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One chaos cell on the bounded fabric: message drops under depth-1
// backpressure must still come back transparent or diagnosed — never
// wrong, never hung (the PR-7 contract extends to the new fabric).
// ---------------------------------------------------------------------------

TEST(BoundedFabric, ChaosCellOnBoundedMeshIsTransparentOrDiagnosed) {
  ref::Cell cell;
  cell.plan = "drop";
  cell.flavor = ref::Flavor::kRu;
  cell.fabric.network = core::NetworkKind::kMesh;
  cell.nodes = 8;
  cell.phases = 2;
  cell.fabric.buffer_depth = kDepth;
  const ref::CellResult r = ref::run_cell(cell, ref::make_oracle(cell));
  EXPECT_TRUE(r.verdict == ref::Verdict::kTransparent ||
              r.verdict == ref::Verdict::kDiagnosed)
      << ref::to_string(r.verdict) << ": " << r.divergence.detail;
}

}  // namespace
}  // namespace bcsim
