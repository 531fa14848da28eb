// Pins that a memory operation costs no host heap allocation.
//
// An operation's completion path touches a future state, a completion
// callback, the coroutine frames of the program that awaits it and, on the
// paper machine, a READ-UPDATE chain that every hop forwards. These tests
// count the heap allocations of this binary (a replaced operator new)
// around whole machine runs and around each piece: the pooled SimFuture
// state, the inline completion callback and the shared chain snapshot.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "conf/scenario.hpp"
#include "core/cache_controller.hpp"
#include "core/machine.hpp"
#include "net/message.hpp"
#include "sim/task.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Counts every heap allocation of this test binary. All three stay out of
// line: inlined into a container destroyed in the same function, GCC 12
// pairs the malloc() or free() in their bodies with the container's new or
// delete and reports a mismatch that is not one.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bcsim {
namespace {

struct Counted {
  std::size_t allocations = 0;  ///< heap allocations made by Machine::run
  std::uint64_t ops = 0;        ///< primitives the processors retired
  bool correct = false;         ///< the workload's own result check
};

/// Builds the scenario's machine and workload as the CLI does, then counts
/// what Machine::run alone allocates.
Counted run_counted(const conf::Scenario& s) {
  core::Machine m(conf::build_machine(s.machine));
  conf::WorkloadInstance w(m, s.workload);
  const std::size_t before = g_allocations;
  m.run();
  Counted c;
  c.allocations = g_allocations - before;
  c.ops = m.ops_retired_total();
  if (w.solver() != nullptr) {
    c.correct = w.solver()->solution(m) == w.solver()->reference();
  } else if (w.work_queue() != nullptr) {
    c.correct = w.work_queue()->tasks_executed(m) == s.workload.work_queue.total_tasks;
  }
  return c;
}

// A design that allocates per operation makes more than two allocations per
// retired op on both runs below (its future state, its std::function
// callback, coroutine frames, chain copies). What is left is per run or per
// block (cache sets, directory entries, memory blocks): about one
// allocation per ten ops on these short runs, and fewer on longer ones.
constexpr std::uint64_t kOpsPerAllocation = 4;

TEST(Allocations, PaperSolverAllocatesFarLessThanOncePerOperation) {
  conf::Scenario s;
  s.machine.nodes = 16;
  s.machine.flavor = "paper";
  s.workload.kind = "solver";
  s.workload.solver.iterations = 8;
  const Counted c = run_counted(s);
  ASSERT_TRUE(c.correct);
  ASSERT_GT(c.ops, 1000u);
  EXPECT_LT(c.allocations * kOpsPerAllocation, c.ops)
      << c.allocations << " allocations for " << c.ops << " retired ops";
}

TEST(Allocations, WbiWorkQueueAllocatesFarLessThanOncePerOperation) {
  conf::Scenario s;
  s.machine.nodes = 16;
  s.machine.flavor = "wbi";
  s.workload.kind = "work-queue";
  s.workload.work_queue.total_tasks = 128;
  const Counted c = run_counted(s);
  ASSERT_TRUE(c.correct);
  ASSERT_GT(c.ops, 1000u);
  EXPECT_LT(c.allocations * kOpsPerAllocation, c.ops)
      << c.allocations << " allocations for " << c.ops << " retired ops";
}

TEST(Allocations, ResolvedFuturesReuseTheirPooledState) {
  { sim::SimFuture<Word> warm; }  // the thread's pool holds one state now
  const std::size_t before = g_allocations;
  for (Word i = 0; i < 1000; ++i) {
    sim::SimFuture<Word> f;
    auto resolve = f.resolver();
    resolve(i);
    ASSERT_TRUE(f.ready());
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(Allocations, CompletionCallbackHoldsTwoPointersInline) {
  std::uint64_t retired = 0;
  sim::SimFuture<Word> f;
  const std::size_t before = g_allocations;
  // The processor's capture: its own pointer and the future's resolver.
  core::CacheController::Cb cb = [n = &retired, r = f.resolver()](
                                     core::CacheController::Response resp) {
    ++*n;
    r(resp.value);
  };
  core::CacheController::Cb moved = std::move(cb);
  moved(core::CacheController::Response{42});
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(retired, 1u);
  EXPECT_TRUE(f.ready());
}

TEST(Allocations, ChainHopsShareOneSnapshot) {
  const std::vector<NodeId> list = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<net::Message> hops;
  hops.reserve(list.size() + 1);
  std::vector<NodeId> visited;
  visited.reserve(list.size());
  const std::size_t before = g_allocations;
  net::Message m;
  m.chain.assign(list.begin(), list.end());
  EXPECT_LE(g_allocations - before, 1u) << "one snapshot per propagation";
  // Forward hop by hop, keeping every earlier copy alive the way duplicated
  // and retransmitted copies are kept by the transport.
  const std::size_t after_setup = g_allocations;
  hops.push_back(m);
  while (!hops.back().chain.empty()) {
    net::Message fwd = hops.back();
    fwd.dst = fwd.chain.front();
    fwd.chain.pop_front();
    visited.push_back(fwd.dst);
    hops.push_back(std::move(fwd));
  }
  EXPECT_EQ(g_allocations - after_setup, 0u) << "a hop copies no list";
  EXPECT_EQ(visited, list);
  EXPECT_EQ(hops.front().chain.size(), list.size()) << "copies keep their own cursor";
}

}  // namespace
}  // namespace bcsim
