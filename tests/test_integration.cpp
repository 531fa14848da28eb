// Cross-cutting integration tests: whole-machine invariants, configuration
// validation, determinism under the Omega network, and protocol
// coexistence.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workload/work_queue_model.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Processor;
using test::paper_config;
using test::run_all;
using test::small_config;

TEST(Config, ValidationCatchesNonsense) {
  MachineConfig cfg;
  cfg.n_nodes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.block_words = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.block_words = 33;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.cache_blocks = 10;
  cfg.cache_assoc = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.cache_blocks = 12;  // 3 sets of 4: not a power of two
  cfg.cache_assoc = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.consistency = core::Consistency::kBuffered;  // on WBI: rejected
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MachineConfig{};
  cfg.data_protocol = core::DataProtocol::kReadUpdate;
  cfg.lock_impl = core::LockImpl::kTts;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(MachineConfig{}.validate());
}

TEST(Machine, PeekPokeRoundTrip) {
  Machine m(small_config(4));
  m.poke_memory(1234, 77);
  EXPECT_EQ(m.peek_memory(1234), 77u);
  EXPECT_EQ(m.peek_memory(1235), 0u);
}

TEST(Machine, RunWithNoProgramsReturnsImmediately) {
  Machine m(small_config(2));
  EXPECT_EQ(m.run(), 0u);
  EXPECT_TRUE(m.all_done());
  EXPECT_TRUE(m.quiescent());
}

TEST(Machine, ProgramExceptionSurfacesFromRun) {
  Machine m(small_config(2));
  auto bad = [](Processor& p) -> sim::Task {
    co_await p.compute(5);
    throw std::runtime_error("program bug");
  };
  m.spawn(bad(m.processor(0)));
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, CycleBudgetDetectsLivelock) {
  Machine m(small_config(2));
  auto spin_forever = [](Processor& p) -> sim::Task {
    for (;;) co_await p.compute(100);
  };
  m.spawn(spin_forever(m.processor(0)));
  EXPECT_THROW(m.run(10'000), std::runtime_error);
}

TEST(Machine, DeterministicAcrossRuns) {
  // Full determinism: identical config + seed => identical completion time
  // and identical message counts, even with Omega contention.
  auto run_once = [] {
    auto cfg = paper_config(8);
    cfg.network = core::NetworkKind::kOmega;
    Machine m(cfg);
    workload::WorkQueueConfig wq;
    wq.total_tasks = 40;
    wq.grain = 15;
    workload::WorkQueueWorkload w(m, wq);
    w.spawn_all(m);
    const Tick t = m.run(50'000'000);
    return std::pair{t, m.stats().counter_value("net.messages")};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Machine, StatsReportCoversSubsystems) {
  Machine m(paper_config(4));
  workload::WorkQueueConfig wq;
  wq.total_tasks = 16;
  wq.grain = 10;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  EXPECT_GT(m.stats().counter_value("net.messages"), 0u);
  EXPECT_GT(m.stats().counter_value("dir.lock_req"), 0u);
  EXPECT_GT(m.stats().sum_by_prefix("cache."), 0u);
}

TEST(Machine, WbiDirectoryInvariantsAtQuiescence) {
  // After any WBI run: no entry busy, and a modified entry has exactly one
  // owner and no sharers.
  auto cfg = small_config(8);
  cfg.network = core::NetworkKind::kOmega;
  Machine m(cfg);
  auto prog = [](Processor& p) -> sim::Task {
    auto& rng = p.rng();
    for (int k = 0; k < 200; ++k) {
      const Addr a = rng.next_below(64);
      if (rng.chance(0.5)) {
        co_await p.read(a);
      } else {
        co_await p.write(a, p.id());
      }
    }
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  for (BlockId b = 0; b < 16; ++b) {
    const auto* e = m.directory(m.address_map().home_of(b)).peek(b);
    if (e == nullptr) continue;
    EXPECT_FALSE(e->busy()) << "block " << b;
    if (e->state == mem::DirState::kModified) {
      EXPECT_NE(e->owner, kNoNode);
      EXPECT_TRUE(e->sharers.empty());
    }
    if (e->state == mem::DirState::kShared) {
      std::set<NodeId> uniq(e->sharers.begin(), e->sharers.end());
      EXPECT_EQ(uniq.size(), e->sharers.size()) << "duplicate sharer for block " << b;
    }
  }
}

TEST(Machine, WbiOwnerCacheMatchesDirectory) {
  auto cfg = small_config(4);
  Machine m(cfg);
  auto prog = [](Processor& p) -> sim::Task {
    for (Addr a = 0; a < 32; a += 4) co_await p.write(a, p.id() + 1);
  };
  for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  for (BlockId b = 0; b < 8; ++b) {
    const auto* e = m.directory(m.address_map().home_of(b)).peek(b);
    ASSERT_NE(e, nullptr);
    if (e->state != mem::DirState::kModified) continue;
    const auto* line = m.cache_controller(e->owner).data_cache().find(b);
    ASSERT_NE(line, nullptr) << "directory owner lost its line, block " << b;
    EXPECT_EQ(line->msi, cache::MsiState::kModified);
  }
}

TEST(Machine, MixedLockAndDataTrafficQuiesces) {
  // Locks, barriers, global writes, and coherent traffic all at once; the
  // machine must drain completely.
  Machine m(paper_config(8));
  const Addr lock = 16;
  auto prog = [&](Processor& p) -> sim::Task {
    auto& rng = p.rng();
    for (int k = 0; k < 10; ++k) {
      co_await p.write_lock(lock);
      const Word v = co_await p.read(lock + 1);
      co_await p.write(lock + 1, v + 1);
      co_await p.unlock(lock);
      co_await p.write_global(256 + p.id() * 4, k);
      if (rng.chance(0.3)) co_await p.read_update(512);
      co_await p.flush_buffer();
    }
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(lock + 1), 80u);
}

// Full configuration-space sweep: every legal combination of data
// protocol, lock, barrier, and network must run the work-queue workload
// to completion with exact task accounting. This is the cartesian smoke
// screen that catches cross-feature interactions no focused test names.
struct ConfigPoint {
  core::DataProtocol proto;
  core::LockImpl lock;
  core::BarrierImpl barrier;
  core::NetworkKind net;
};

class ConfigCartesian : public ::testing::TestWithParam<ConfigPoint> {};

TEST_P(ConfigCartesian, WorkQueueRunsExactly) {
  const auto& pt = GetParam();
  core::MachineConfig cfg;
  cfg.n_nodes = 8;
  cfg.cache_blocks = 64;
  cfg.cache_assoc = 4;
  cfg.lock_cache_entries = 8;
  cfg.data_protocol = pt.proto;
  cfg.consistency = pt.proto == core::DataProtocol::kReadUpdate
                        ? core::Consistency::kBuffered
                        : core::Consistency::kSequential;
  cfg.lock_impl = pt.lock;
  cfg.barrier_impl = pt.barrier;
  cfg.network = pt.net;
  Machine m(cfg);
  workload::WorkQueueConfig wq;
  wq.total_tasks = 24;
  wq.grain = 8;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.tasks_executed(m), 24u);
}

std::vector<ConfigPoint> all_legal_points() {
  std::vector<ConfigPoint> pts;
  for (auto proto : {core::DataProtocol::kWbi, core::DataProtocol::kReadUpdate}) {
    for (auto lock : {core::LockImpl::kCbl, core::LockImpl::kTts, core::LockImpl::kTtsBackoff,
                      core::LockImpl::kTicket, core::LockImpl::kMcs}) {
      if (proto == core::DataProtocol::kReadUpdate && lock != core::LockImpl::kCbl) {
        continue;  // software spin locks need coherent READ/WRITE
      }
      for (auto barrier : {core::BarrierImpl::kCbl, core::BarrierImpl::kCentral,
                           core::BarrierImpl::kTree}) {
        for (auto net : {core::NetworkKind::kOmega, core::NetworkKind::kCrossbar,
                         core::NetworkKind::kMesh, core::NetworkKind::kIdeal}) {
          pts.push_back({proto, lock, barrier, net});
        }
      }
    }
  }
  return pts;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigCartesian,
                         ::testing::ValuesIn(all_legal_points()),
                         [](const auto& pinfo) {
                           const auto& pt = pinfo.param;
                           std::string name(core::to_string(pt.proto) ==
                                                    std::string_view("wbi")
                                                ? "wbi"
                                                : "ru");
                           name += "_";
                           for (char c : std::string(core::to_string(pt.lock))) {
                             if (c != '-') name += c;
                           }
                           name += "_";
                           name += std::string(core::to_string(pt.barrier));
                           name += "_";
                           name += std::string(core::to_string(pt.net));
                           return name;
                         });

// Systematic race-window sweep for the read-update protocol: a subscriber
// unsubscribes/resubscribes at every cycle offset around a writer's
// write-global; the system must quiesce with memory and subscriptions
// consistent at every offset.
TEST(Machine, RuSubscribeUnsubscribeRaceSweep) {
  for (Tick offset = 0; offset < 25; ++offset) {
    Machine m(paper_config(3));
    const Addr a = 8;
    auto writer = [&](Processor& p) -> sim::Task {
      co_await p.compute(10);
      co_await p.write_global(a, 77);
      co_await p.flush_buffer();
    };
    auto churner = [&](Processor& p) -> sim::Task {
      co_await p.read_update(a);
      co_await p.compute(offset);
      co_await p.reset_update(a);
      co_await p.compute(3);
      co_await p.read_update(a);
    };
    m.spawn(writer(m.processor(0)));
    m.spawn(churner(m.processor(1)));
    run_all(m);
    EXPECT_EQ(m.peek_memory(a), 77u) << "offset " << offset;
    // If still subscribed with a clean line, it must match memory.
    if (const auto* line = m.cache_controller(1).data_cache().find(2)) {
      if (line->update_bit) {
        EXPECT_EQ(line->data[0], 77u) << "stale resubscriber at offset " << offset;
      }
    }
  }
}

TEST(Machine, SyncTrafficDominatesUnderContention) {
  // The paper's opening observation: "synchronization accesses cause much
  // greater network contention than accesses to normal shared data."
  // On the CBL machine (where sync has dedicated message types, so the
  // classification is exact), a contended work-queue run must show a
  // large synchronization share despite sync ops being a small fraction
  // of program operations.
  auto cfg = paper_config(16);
  cfg.network = core::NetworkKind::kOmega;
  Machine m(cfg);
  workload::WorkQueueConfig wq;
  wq.total_tasks = 64;
  wq.grain = 30;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  const double sync_msgs = static_cast<double>(m.stats().counter_value("net.sync_messages"));
  const double data_msgs = static_cast<double>(m.stats().counter_value("net.data_messages"));
  ASSERT_GT(sync_msgs, 0.0);
  ASSERT_GT(data_msgs, 0.0);
  EXPECT_GT(sync_msgs / (sync_msgs + data_msgs), 0.25)
      << "synchronization should account for an outsized share of traffic";
}

TEST(Machine, LargeScaleSmoke64Nodes) {
  auto cfg = paper_config(64);
  cfg.network = core::NetworkKind::kOmega;
  Machine m(cfg);
  workload::WorkQueueConfig wq;
  wq.total_tasks = 128;
  wq.grain = 5;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.tasks_executed(m), 128u);
}

}  // namespace
}  // namespace bcsim
