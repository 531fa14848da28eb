// Chaos-layer tests: fault-plan grammar/registry, transport recovery
// (drop/dup/delay/corrupt masked by retries), liveness watchdog
// diagnoses (deadlock with a wait-for graph, livelock), and oracle cells
// on a faulty fabric (docs/TESTING.md, "Chaos testing & liveness"). The
// committed corpus replays in tests/test_diff.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/watchdog.hpp"
#include "net/transport.hpp"
#include "ref/diff.hpp"
#include "sim/fault_plan.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using test::run_all;
using test::small_config;

// ---- fault-plan grammar ----

TEST(FaultPlan, ParseAndRoundTrip) {
  const auto plan = sim::FaultPlan::parse(
      "drop:p=0.05,type=sync;delay:p=0.25,ticks=32,src=1,dst=2;"
      "stall:node=3,at=1000,len=500;seed=42;retry:max=8,timeout=16,nack=off");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.max_retries, 8u);
  EXPECT_EQ(plan.rto_base, 16u);
  EXPECT_FALSE(plan.nack);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].kind, sim::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.rules[0].p, 0.05);
  EXPECT_EQ(plan.rules[0].type, "sync");
  EXPECT_EQ(plan.rules[1].kind, sim::FaultKind::kDelay);
  EXPECT_EQ(plan.rules[1].ticks, 32u);
  EXPECT_EQ(plan.rules[1].src, 1u);
  EXPECT_EQ(plan.rules[1].dst, 2u);
  EXPECT_EQ(plan.rules[2].kind, sim::FaultKind::kStall);
  EXPECT_EQ(plan.rules[2].node, 3u);
  EXPECT_EQ(plan.rules[2].at, 1000u);
  EXPECT_EQ(plan.rules[2].ticks, 500u);
  EXPECT_TRUE(plan.has_net_rules());

  // Canonical form re-parses to the same plan.
  const auto again = sim::FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_EQ(again.rules.size(), plan.rules.size());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)sim::FaultPlan::parse("drop:p=1.5"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("drop:p=x"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("flip:p=0.1"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("drop:frequency=2"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("stall:at=5"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("delay:p=0.1,ticks=0"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("drop:p=0.1,from=9,until=9"),
               std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("retry:max=100"), std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("wb:fault=nonsense"), std::invalid_argument);
}

TEST(FaultPlan, RegistryResolvesLegacyAliasesAndInlineSpecs) {
  // The old --inject-fault spellings live in the registry and map onto the
  // write-buffer fault knob through apply_fault_plan.
  const auto eager = sim::resolve_fault_plan("eager-flush");
  ASSERT_EQ(eager.rules.size(), 1u);
  EXPECT_EQ(eager.rules[0].kind, sim::FaultKind::kWbEagerFlush);
  EXPECT_FALSE(eager.has_net_rules());

  core::MachineConfig cfg;
  core::apply_fault_plan(cfg, eager);
  EXPECT_EQ(cfg.wb_fault, core::WbFault::kEagerFlush);
  core::apply_fault_plan(cfg, sim::resolve_fault_plan("empty-gate"));
  EXPECT_EQ(cfg.wb_fault, core::WbFault::kEmptyGate);

  // Inline specs resolve too; unknown bare names fail with the valid list.
  EXPECT_EQ(sim::resolve_fault_plan("drop:p=0.5;seed=9").seed, 9u);
  try {
    (void)sim::resolve_fault_plan("banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("banana"), std::string::npos);
    EXPECT_NE(what.find("drop-noretry"), std::string::npos) << what;
    EXPECT_NE(what.find("mixed"), std::string::npos) << what;
  }
}

TEST(FaultPlan, UnknownMessageTypeRejectedAtInstall) {
  auto cfg = small_config(2);
  core::apply_fault_plan(cfg, sim::FaultPlan::parse("drop:p=1,type=Bogus"));
  EXPECT_THROW((void)Machine(cfg), std::invalid_argument);
}

// ---- transport recovery: faults are semantically transparent ----

sim::Task add_and_read(Processor& p, Addr counter, Addr spread, int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await p.fetch_add(counter, 1);
    (void)co_await p.read(spread + static_cast<Addr>(i % 8));
    co_await p.compute(3);
  }
}

/// Shared-counter workload under a fault plan: completion with the exact
/// sum proves the injected faults were masked end-to-end.
void expect_transparent(const char* spec, const char* must_fire) {
  auto cfg = small_config(4);
  core::apply_fault_plan(cfg, sim::resolve_fault_plan(spec));
  cfg.watchdog_interval = 8192;
  Machine m(cfg);
  auto alloc = m.make_allocator();
  const Addr counter = alloc.alloc_blocks(1);
  const Addr spread = alloc.alloc_blocks(2);
  constexpr int kIters = 12;
  for (NodeId n = 0; n < 4; ++n) {
    m.spawn(add_and_read(m.processor(n), counter, spread, kIters));
  }
  run_all(m);
  EXPECT_EQ(m.peek_coherent(counter), 4u * kIters) << "under plan " << spec;
  EXPECT_GT(m.stats().counter_value(must_fire), 0u)
      << "plan " << spec << " never exercised " << must_fire;
  ASSERT_NE(m.network().transport(), nullptr);
  EXPECT_TRUE(m.network().transport()->idle());
  EXPECT_TRUE(m.network().transport()->given_up().empty());
}

TEST(Transport, DropsAreMaskedByRetransmission) {
  expect_transparent("drop:p=0.05;seed=7", "net.fault.drop");
}

TEST(Transport, DuplicatesAreDeduplicated) {
  expect_transparent("dup:p=0.2;seed=3", "net.fault.dup");
}

TEST(Transport, DelaysAreReordered) {
  expect_transparent("delay:p=0.3,ticks=64;seed=5", "net.fault.delay");
}

TEST(Transport, CorruptionIsDetectedAndRetransmitted) {
  expect_transparent("corrupt:p=0.05;seed=11", "net.fault.corrupt");
}

TEST(Transport, MixedFaultsWithNodeStall) {
  expect_transparent("drop:p=0.02;dup:p=0.05;delay:p=0.1,ticks=32;"
                     "stall:node=1,at=100,len=500;seed=1",
                     "net.fault.stall");
}

TEST(Transport, RetransmitCounterTracksRecoveries) {
  auto cfg = small_config(4);
  core::apply_fault_plan(cfg, sim::resolve_fault_plan("drop:p=0.1;seed=2"));
  cfg.watchdog_interval = 8192;
  Machine m(cfg);
  auto alloc = m.make_allocator();
  const Addr counter = alloc.alloc_blocks(1);
  const Addr spread = alloc.alloc_blocks(2);
  for (NodeId n = 0; n < 4; ++n) {
    m.spawn(add_and_read(m.processor(n), counter, spread, 12));
  }
  run_all(m);
  EXPECT_GE(m.stats().counter_value("net.retransmit"),
            m.stats().counter_value("net.fault.drop"))
      << "every lost message needs at least one retransmission";
}

TEST(Transport, EmptyPlanInstallsNothing) {
  Machine m(small_config(4));
  EXPECT_EQ(m.network().transport(), nullptr);
  EXPECT_TRUE(m.config().fault_plan.empty());
}

// ---- liveness watchdog ----

sim::Task lock_cs_unlock(Processor& p, Addr lock, Tick cs) {
  (void)co_await p.write_lock(lock);
  co_await p.compute(cs);
  (void)co_await p.unlock(lock);
}

sim::Task delayed_lock(Processor& p, Addr lock) {
  co_await p.compute(50);
  (void)co_await p.write_lock(lock);
  (void)co_await p.unlock(lock);
}

TEST(Watchdog, DroppedLockHandoffWithoutRetriesIsDeadlock) {
  // The ISSUE scenario: CBL lock handoff dropped, retries disabled. Node 1
  // waits for a grant that will never come; the watchdog must diagnose a
  // deadlock whose wait-for graph names the blocked node and the lock
  // chain, and the transport must report the undeliverable handoff.
  auto cfg = small_config(2);
  cfg.lock_impl = core::LockImpl::kCbl;
  core::apply_fault_plan(
      cfg, sim::FaultPlan::parse("drop:p=1,type=LockHandoff;retry:off"));
  cfg.watchdog_interval = 1024;
  Machine m(cfg);
  auto alloc = m.make_allocator();
  const Addr lock = alloc.alloc_blocks(1);
  m.spawn(lock_cs_unlock(m.processor(0), lock, 2000));
  m.spawn(delayed_lock(m.processor(1), lock));
  try {
    m.run(1'000'000);
    FAIL() << "expected LivenessViolation";
  } catch (const core::LivenessViolation& e) {
    EXPECT_EQ(e.kind, core::LivenessKind::kDeadlock);
    const std::string what = e.what();
    EXPECT_NE(what.find("liveness watchdog: deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("node 1"), std::string::npos)
        << "report must name the blocked node:\n" << what;
    EXPECT_NE(what.find("lock"), std::string::npos) << what;
    EXPECT_NE(what.find("undeliverable"), std::string::npos)
        << "report must surface the dropped handoff:\n" << what;
    EXPECT_NE(what.find("LockHandoff"), std::string::npos) << what;
  }
  EXPECT_FALSE(m.all_done());
}

TEST(Watchdog, ExhaustedRetriesAreDiagnosedNotHung) {
  // Total loss on one link with bounded retries: the transport gives up
  // after max attempts, the queue drains, and the run ends in a diagnosed
  // deadlock instead of spinning out the cycle budget.
  auto cfg = small_config(2);
  core::apply_fault_plan(
      cfg, sim::FaultPlan::parse("drop:p=1,dst=0;retry:max=3,timeout=8"));
  cfg.watchdog_interval = 4096;
  Machine m(cfg);
  Word seen = 0;
  auto reader = [](Processor& p, Addr a, Word& out) -> sim::Task {
    out = co_await p.read(a);
  };
  m.spawn(reader(m.processor(0), 4 * 1, seen));  // block homed at node 1
  try {
    m.run(10'000'000);
    FAIL() << "expected LivenessViolation";
  } catch (const core::LivenessViolation& e) {
    EXPECT_EQ(e.kind, core::LivenessKind::kDeadlock);
    EXPECT_NE(std::string(e.what()).find("retries exhausted"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(m.stats().counter_value("net.gave_up"), 0u);
}

sim::Task spin_forever(Processor& p) {
  for (;;) co_await p.compute(64);
}

TEST(Watchdog, ComputeOnlySpinIsLivelock) {
  auto cfg = small_config(2);
  cfg.watchdog_interval = 512;
  cfg.watchdog_stalls = 3;
  Machine m(cfg);
  m.spawn(spin_forever(m.processor(0)));
  try {
    m.run(1'000'000);
    FAIL() << "expected LivenessViolation";
  } catch (const core::LivenessViolation& e) {
    EXPECT_EQ(e.kind, core::LivenessKind::kLivelock);
    EXPECT_NE(std::string(e.what()).find("no operation retired"), std::string::npos)
        << e.what();
  }
}

TEST(Watchdog, OffByDefaultBudgetStaysARuntimeError) {
  auto cfg = small_config(2);
  ASSERT_EQ(cfg.watchdog_interval, 0u);
  Machine m(cfg);
  m.spawn(spin_forever(m.processor(0)));
  EXPECT_THROW(m.run(10'000), std::runtime_error);
}

// An armed watchdog only watches: the run ends at its last event, so the
// completion tick and the digest match the unwatched run.
TEST(Watchdog, ArmedWatchdogKeepsCompletionAndDigest) {
  const auto run = [](Tick interval) {
    auto cfg = small_config(4);
    cfg.watchdog_interval = interval;
    Machine m(cfg);
    auto alloc = m.make_allocator();
    const Addr counter = alloc.alloc_blocks(1);
    const Addr spread = alloc.alloc_blocks(2);
    for (NodeId n = 0; n < 4; ++n) {
      m.spawn(add_and_read(m.processor(n), counter, spread, 12));
    }
    const Tick done = run_all(m);
    return std::pair{done, m.stats().digest()};
  };
  const auto off = run(0);
  for (const Tick interval : {Tick{64}, Tick{4096}}) {
    const auto on = run(interval);
    EXPECT_EQ(on.first, off.first) << "watchdog interval " << interval;
    EXPECT_EQ(on.second, off.second) << "watchdog interval " << interval;
  }
}

// ---- chaos cells: the transparent-or-diagnosed contract ----

TEST(Chaos, DropCellIsTransparent) {
  ref::Cell cell;
  cell.plan = "drop";
  cell.fault_seed = 4;
  cell.nodes = 4;
  cell.phases = 2;
  const auto out = ref::run_cell(cell, ref::make_oracle(cell));
  EXPECT_EQ(out.verdict, ref::Verdict::kTransparent) << out.divergence.detail;
}

TEST(Chaos, NoRetryCellIsDiagnosedNeverHung) {
  // Heavy loss with recovery disabled on the paper machine: the run cannot
  // succeed, but it must end in a watchdog/invariant diagnosis — the
  // "never hung" half of the chaos contract.
  ref::Cell cell;
  cell.plan = "drop:p=0.2;retry:off";
  cell.fault_seed = 1;
  cell.nodes = 4;
  cell.phases = 2;
  const auto out = ref::run_cell(cell, ref::make_oracle(cell));
  EXPECT_EQ(out.verdict, ref::Verdict::kDiagnosed) << out.divergence.detail;
}

TEST(Chaos, EagerFlushLeakIsCaughtAsWrong) {
  // The legacy write-buffer fault breaks BC's flush gate; the oracle must
  // classify the completed-but-divergent run as wrong. Same grid shape as
  // Diff.CatchesTheEagerFlushFault: the mesh's distance-dependent paths
  // are what let the un-flushed write lose the race.
  ref::Cell cell;
  cell.plan = "eager-flush";
  cell.fabric.network = core::NetworkKind::kMesh;
  cell.nodes = 16;
  cell.watchdog = 4096;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 4 && !caught; ++seed) {
    cell.program_seed = seed;
    const ref::Oracle oracle = ref::make_oracle(cell);
    for (std::uint64_t ss = 0; ss < 2 && !caught; ++ss) {
      cell.schedule_seed = ss;
      const auto out = ref::run_cell(cell, oracle);
      ASSERT_NE(out.verdict, ref::Verdict::kHung) << out.divergence.detail;
      caught = out.verdict == ref::Verdict::kWrong;
    }
  }
  EXPECT_TRUE(caught) << "eager-flush leaked through every probe cell";
}

}  // namespace
}  // namespace bcsim
