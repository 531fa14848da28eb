// Boundary-condition suite: degenerate machines (one node, one-word
// blocks, direct-mapped single-set caches), extreme block sizes, and the
// corners of every workload's parameter space.
#include <gtest/gtest.h>

#include "core/sync/mutex.hpp"
#include "workload/fft_phases.hpp"
#include "workload/grid_stencil.hpp"
#include "workload/linear_solver.hpp"
#include "workload/stencil.hpp"
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

TEST(Edge, SingleNodeMachineRunsEveryPrimitive) {
  Machine m(paper_config(1));
  Word out = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_global(4, 10);
    co_await p.flush_buffer();
    out += co_await p.read_global(4);
    out += co_await p.read_update(4);
    co_await p.reset_update(4);
    co_await p.write_lock(16);
    co_await p.write(17, 1);
    co_await p.unlock(16);
    out += co_await p.fetch_add(8, 5);
    co_await p.barrier_arrive(24, 1);
    out += co_await p.read(17);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(out, 21u);  // 10 + 10 + 0 + 1
  EXPECT_EQ(m.peek_memory(17), 1u);
}

TEST(Edge, OneWordBlocks) {
  auto cfg = paper_config(4);
  cfg.block_words = 1;
  Machine m(cfg);
  const Addr lock = 7;
  auto prog = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 6; ++k) {
      co_await p.write_lock(lock);
      const Word v = co_await p.read(lock);
      co_await p.write(lock, v + 1);
      co_await p.unlock(lock);
    }
  };
  for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(lock), 24u);
}

TEST(Edge, CblLockDataSurvives32WordBlocks) {
  // The final lock writeback of a 32-word block carries a full dirty mask;
  // computed as (1u << 32) - 1 it was undefined (0 on x86) and memory
  // silently kept the stale counter. Same lock counter as OneWordBlocks,
  // under both data protocols.
  for (const auto data : {core::DataProtocol::kReadUpdate, core::DataProtocol::kWbi}) {
    auto cfg = paper_config(4);
    cfg.block_words = 32;
    cfg.data_protocol = data;
    if (data == core::DataProtocol::kWbi) cfg.consistency = core::Consistency::kSequential;
    Machine m(cfg);
    const Addr lock = 7;
    auto prog = [&](Processor& p) -> sim::Task {
      for (int k = 0; k < 6; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock);
        co_await p.write(lock, v + 1);
        co_await p.unlock(lock);
      }
    };
    for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
    run_all(m);
    EXPECT_EQ(m.peek_memory(lock), 24u)
        << (data == core::DataProtocol::kWbi ? "WBI" : "RU") << " data protocol";
  }
}

TEST(Edge, MaximumBlockSize32Words) {
  auto cfg = paper_config(4);
  cfg.block_words = 32;
  Machine m(cfg);
  Word sum = 0;
  auto writer = [&](Processor& p) -> sim::Task {
    for (Addr w = 0; w < 32; ++w) co_await p.write_global(w, w + 1);
    co_await p.flush_buffer();
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(600);
    for (Addr w = 0; w < 32; ++w) sum += co_await p.read_update(w);
  };
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(1)));
  run_all(m);
  EXPECT_EQ(sum, 32u * 33 / 2);
}

TEST(Edge, DirectMappedSingleSetCache) {
  auto cfg = small_config(2);
  cfg.cache_blocks = 1;
  cfg.cache_assoc = 1;
  Machine m(cfg);
  auto prog = [&](Processor& p) -> sim::Task {
    // Every access evicts the previous line; correctness must survive.
    for (Addr a = 0; a < 64; a += 4) co_await p.write(a, a + 1);
    for (Addr a = 0; a < 64; a += 4) {
      const Word v = co_await p.read(a);
      EXPECT_EQ(v, a + 1);
    }
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
}

TEST(Edge, WorkQueueWithOneTask) {
  Machine m(paper_config(4));
  workload::WorkQueueConfig wq;
  wq.total_tasks = 1;
  wq.grain = 5;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.tasks_executed(m), 1u);
}

TEST(Edge, WorkQueueMoreProcessorsThanTasks) {
  Machine m(paper_config(16));
  workload::WorkQueueConfig wq;
  wq.total_tasks = 3;
  wq.grain = 5;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.tasks_executed(m), 3u);
}

TEST(Edge, SolverWithTwoProcessors) {
  Machine m(paper_config(2));
  workload::LinearSolverConfig sc;
  sc.iterations = 4;
  workload::LinearSolverWorkload w(m, sc);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.solution(m), w.reference());
}

TEST(Edge, GridStencilOneProcessorOwnsEverything) {
  Machine m(paper_config(1));
  workload::GridStencilConfig gc;
  gc.grid = 8;
  gc.sweeps = 3;
  workload::GridStencilWorkload w(m, gc);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.result(m), w.reference());
}

TEST(Edge, FftWithTwoNodes) {
  Machine m(paper_config(2));
  workload::FftPhasesWorkload w(m, {});
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.actual(m), w.expected());
}

TEST(Edge, StencilMinimumChunk) {
  Machine m(paper_config(4));
  workload::StencilConfig sc;
  sc.cells_per_proc = 2;  // every cell is a chunk boundary
  sc.sweeps = 4;
  workload::StencilWorkload w(m, sc);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.result(m), w.reference());
}

TEST(Edge, LockWordZeroAddress) {
  Machine m(paper_config(2));
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(0);
    co_await p.write(0, 9);
    co_await p.unlock(0);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(0), 9u);
}

TEST(Edge, MutexesAtEveryNodeCount) {
  for (std::uint32_t n : {1u, 2u, 3u}) {
    auto cfg = paper_config(n);
    Machine m(cfg);
    auto alloc = m.make_allocator(50);
    auto mtx = sync::make_mutex(core::LockImpl::kCbl, alloc, n);
    const Addr counter = mtx->lock_addr() + 1;
    struct Prog {
      sync::Mutex& mtx;
      Addr counter;
      sim::Task operator()(Processor& p) const {
        for (int k = 0; k < 4; ++k) {
          co_await mtx.acquire(p);
          const Word v = co_await p.read(counter);
          co_await p.write(counter, v + 1);
          co_await mtx.release(p);
        }
      }
    } prog{*mtx, counter};
    for (NodeId i = 0; i < n; ++i) m.spawn(prog(m.processor(i)));
    run_all(m);
    EXPECT_EQ(m.peek_memory(counter), static_cast<Word>(n) * 4) << n << " nodes";
  }
}

TEST(Edge, HugeAddressesInterleaveCorrectly) {
  Machine m(paper_config(4));
  const Addr far = (1ULL << 40) + 13;
  m.poke_memory(far, 5);
  Word v = 0;
  auto prog = [&](Processor& p) -> sim::Task { v = co_await p.read_global(far); };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(v, 5u);
}

}  // namespace
}  // namespace bcsim
