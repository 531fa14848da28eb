// Parallel sweep runner tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/sweep.hpp"
#include "workload/linear_solver.hpp"

namespace bcsim::sim {
namespace {

TEST(Sweep, ResultsInIndexOrder) {
  const auto out = parallel_map<int>(64, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Sweep, EmptyInputYieldsEmptyOutput) {
  const auto out = parallel_map<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(Sweep, RunsEveryIndexExactlyOnce) {
  std::atomic<int> calls{0};
  parallel_map<int>(100, [&](std::size_t) {
    calls.fetch_add(1);
    return 0;
  });
  EXPECT_EQ(calls.load(), 100);
}

TEST(Sweep, PropagatesExceptions) {
  EXPECT_THROW(parallel_map<int>(16,
                                 [](std::size_t i) -> int {
                                   if (i == 7) throw std::runtime_error("boom");
                                   return 0;
                                 }),
               std::runtime_error);
}

TEST(Sweep, ThreadCountIsSane) {
  EXPECT_GE(sweep_threads(), 1u);
  EXPECT_LE(sweep_threads(), kMaxSweepThreads);
}

/// Sets BCSIM_SWEEP_THREADS for one scope; restores the old value after.
class ScopedSweepEnv {
 public:
  explicit ScopedSweepEnv(const char* value) {
    const char* old = std::getenv("BCSIM_SWEEP_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv("BCSIM_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepEnv() {
    if (had_) {
      ::setenv("BCSIM_SWEEP_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("BCSIM_SWEEP_THREADS");
    }
  }
  ScopedSweepEnv(const ScopedSweepEnv&) = delete;
  ScopedSweepEnv& operator=(const ScopedSweepEnv&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(Sweep, EnvOverrideIsHonored) {
  ScopedSweepEnv env("8");
  EXPECT_EQ(sweep_threads(), 8u);
}

TEST(Sweep, EnvOverrideOfOneIsHonored) {
  ScopedSweepEnv env("1");
  EXPECT_EQ(sweep_threads(), 1u);
}

TEST(Sweep, EnvOverrideIsClampedToMax) {
  ScopedSweepEnv env("1000");
  EXPECT_EQ(sweep_threads(), kMaxSweepThreads);
}

TEST(Sweep, GarbageEnvFallsBackToHardwareDefault) {
  const std::size_t hw = [] {
    ScopedSweepEnv none("");  // empty is invalid -> hardware default
    return sweep_threads();
  }();
  // "1e3" used to parse as 1 (strtol stops at 'e'); it must be rejected
  // whole, like any other trailing-garbage value.
  for (const char* bad : {"1e3", "4x", "x", "0", "-2", " 8"}) {
    ScopedSweepEnv env(bad);
    EXPECT_EQ(sweep_threads(), hw) << "BCSIM_SWEEP_THREADS='" << bad << "'";
  }
}

/// A small paper machine running the Jacobi solver, with its workload.
struct SolverRun {
  explicit SolverRun(std::uint64_t seed) : machine(config(seed)), solver(machine, {}) {
    solver.spawn_all(machine);
  }
  static core::MachineConfig config(std::uint64_t seed) {
    core::MachineConfig cfg;
    cfg.n_nodes = 8;
    cfg.seed = seed;
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = core::Consistency::kBuffered;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
    return cfg;
  }
  core::Machine machine;
  workload::LinearSolverWorkload solver;
};

TEST(Sweep, MachinesRunOnWorkerThreadsLikeSerialRuns) {
  // A machine's future states, coroutine frames and chain snapshots come
  // from the per-thread block pool (sim/block_pool.hpp). Here machines are
  // built and destroyed on this thread but run on workers, so blocks made
  // on one thread are released on another; every run must still match its
  // serial twin bit for bit.
  constexpr std::size_t kRuns = 8;
  std::vector<std::uint64_t> serial;
  for (std::size_t i = 0; i < kRuns; ++i) {
    SolverRun r(i);
    r.machine.run();
    serial.push_back(r.machine.stats_digest());
  }
  std::vector<std::unique_ptr<SolverRun>> runs;
  for (std::size_t i = 0; i < kRuns; ++i) runs.push_back(std::make_unique<SolverRun>(i));
  ScopedSweepEnv env("4");
  const auto parallel = parallel_map<std::uint64_t>(kRuns, [&](std::size_t i) {
    runs[i]->machine.run();
    return runs[i]->machine.stats_digest();
  });
  EXPECT_EQ(parallel, serial);
  for (const auto& r : runs) {
    EXPECT_EQ(r->solver.solution(r->machine), r->solver.reference());
  }
}

}  // namespace
}  // namespace bcsim::sim
