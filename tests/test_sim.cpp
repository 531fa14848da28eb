// Unit tests for the discrete-event kernel: event queue ordering,
// simulator semantics, the PRNG, statistics, and coroutine tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace bcsim::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTickReportsEarliest) {
  EventQueue q;
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_tick(), 7u);
  EXPECT_EQ(q.size(), 2u);
}

#if GTEST_HAS_DEATH_TEST
TEST(EventQueueAssertions, NextTickOnEmptyQueueAsserts) {
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        (void)q.next_tick();
      },
      "empty");
}

TEST(EventQueueAssertions, PopOnEmptyQueueAsserts) {
  EXPECT_DEATH(
      {
        sim::EventQueue q;
        (void)q.pop();
      },
      "empty");
}
#endif

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator s;
  std::vector<Tick> seen;
  s.schedule(5, [&] { seen.push_back(s.now()); });
  s.schedule(2, [&] {
    seen.push_back(s.now());
    s.schedule(10, [&] { seen.push_back(s.now()); });
  });
  EXPECT_EQ(s.run(), RunResult::kIdle);
  EXPECT_EQ(seen, (std::vector<Tick>{2, 5, 12}));
}

TEST(Simulator, StopEndsLoop) {
  Simulator s;
  int fired = 0;
  s.schedule(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule(2, [&] { ++fired; });
  EXPECT_EQ(s.run(), RunResult::kStopped);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.run(), RunResult::kIdle);  // resumes where it left off
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, BudgetStopsRunawaySimulation) {
  Simulator s;
  std::function<void()> loop = [&] { s.schedule(10, loop); };
  s.schedule(0, loop);
  EXPECT_EQ(s.run(1000), RunResult::kBudget);
  EXPECT_LE(s.now(), 1000u);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule(10, [&] { EXPECT_THROW(s.schedule_at(5, [] {}), std::logic_error); });
  s.run();
}

TEST(Simulator, RunUntilAdvancesToBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule(10, [&] { ++fired; });
  s.schedule(20, [&] { ++fired; });
  s.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 15u);
  s.run_until(25);
  EXPECT_EQ(fired, 2);
}

// Two interleaved streams on two ordering channels, all arriving at one
// tick, with unrelated same-tick cross-traffic for the tie-break to permute
// against. Whatever a schedule seed does, each channel delivers in send
// order — the point-to-point FIFO guarantee the protocols are built on.
TEST(Simulator, ChannelOrderSurvivesEverySeed) {
  constexpr int kPerChannel = 16;
  constexpr std::uint64_t kChanA = 0xA11CE;
  constexpr std::uint64_t kChanB = 0xB0B;
  bool some_seed_permuted = false;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Simulator s;
    s.set_schedule_seed(seed);
    std::vector<int> got_a;
    std::vector<int> got_b;
    std::vector<char> fired;  // 'a', 'b' or 'n', in firing order
    s.schedule(0, [&] {
      for (int i = 0; i < kPerChannel; ++i) {
        s.schedule_at_channel(10, kChanA, [&, i] {
          got_a.push_back(i);
          fired.push_back('a');
        });
        s.schedule_at_channel(10, kChanB, [&, i] {
          got_b.push_back(i);
          fired.push_back('b');
        });
      }
    });
    s.schedule(0, [&] {
      for (int i = 0; i < 8; ++i) s.schedule_at(10, [&] { fired.push_back('n'); });
    });

    ASSERT_EQ(s.run(), RunResult::kIdle) << "seed " << seed;
    EXPECT_EQ(std::count(fired.begin(), fired.end(), 'n'), 8) << "seed " << seed;
    ASSERT_EQ(got_a.size(), static_cast<std::size_t>(kPerChannel)) << "seed " << seed;
    ASSERT_EQ(got_b.size(), static_cast<std::size_t>(kPerChannel)) << "seed " << seed;
    for (int i = 0; i < kPerChannel; ++i) {
      EXPECT_EQ(got_a[static_cast<std::size_t>(i)], i) << "channel A, seed " << seed;
      EXPECT_EQ(got_b[static_cast<std::size_t>(i)], i) << "channel B, seed " << seed;
    }
    // Seed 0 fires in scheduling order: the channels' pushes, then the noise.
    const bool fifo = std::all_of(fired.end() - 8, fired.end(), [](char c) { return c == 'n'; });
    if (seed == 0) {
      EXPECT_TRUE(fifo);
    }
    some_seed_permuted = some_seed_permuted || !fifo;
  }
  // Without this the sweep could pass on a tie-break that never permutes.
  EXPECT_TRUE(some_seed_permuted);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_diff = any_diff || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Rng r(7);
  std::map<std::uint64_t, int> histo;
  for (int i = 0; i < 30000; ++i) ++histo[r.next_below(10)];
  ASSERT_EQ(histo.size(), 10u);
  for (const auto& [v, count] : histo) {
    EXPECT_LT(v, 10u);
    EXPECT_GT(count, 2400) << "value " << v << " badly under-represented";
    EXPECT_LT(count, 3600) << "value " << v << " badly over-represented";
  }
}

TEST(Rng, ChanceMatchesProbabilityRoughly) {
  Rng r(99);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, NextBelowEdgeCases) {
  Rng r(1);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.next_below(2), 2u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs = differs || (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Histogram, TracksMoments) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 4u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(8);  // bit_width 4 -> bucket [8,15]
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
}

TEST(Histogram, EmptyIsSane) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(StatsRegistry, CountersAreStableAndNamed) {
  StatsRegistry reg;
  Counter& a = reg.counter("x.a");
  reg.counter("x.b").add(3);
  a.add(2);
  EXPECT_EQ(reg.counter_value("x.a"), 2u);
  EXPECT_EQ(reg.counter_value("x.b"), 3u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_EQ(reg.sum_by_prefix("x."), 5u);
  EXPECT_EQ(reg.sum_by_prefix("y."), 0u);
}

TEST(StatsRegistry, ReportMentionsEverything) {
  StatsRegistry reg;
  reg.counter("alpha").add(1);
  reg.histogram("lat").record(5);
  std::ostringstream os;
  reg.report(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("lat"), std::string::npos);
}

TEST(Log, LevelsGateEmission) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  set_log_level(LogLevel::kTrace);
  EXPECT_TRUE(log_enabled(LogLevel::kTrace));
  set_log_level(old);
}

TEST(Log, EmitDoesNotCrashOnEdgeInput) {
  log_emit(LogLevel::kError, "", 0, "");
  log_emit(LogLevel::kTrace, "component", ~0ULL, "tail message");
}

// --- coroutine tasks ---

Task trivial(int& out) {
  out = 42;
  co_return;
}

TEST(Task, LazyStart) {
  int out = 0;
  Task t = trivial(out);
  EXPECT_EQ(out, 0);  // initial_suspend: nothing ran yet
  t.start();
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(t.done());
}

Task sleeper(Simulator& s, std::vector<Tick>& log) {
  log.push_back(s.now());
  co_await delay(s, 10);
  log.push_back(s.now());
  co_await delay(s, 5);
  log.push_back(s.now());
}

TEST(Task, DelayAwaitsSimTime) {
  Simulator s;
  std::vector<Tick> log;
  Task t = sleeper(s, log);
  s.schedule(0, [&t] { t.start(); });
  s.run();
  EXPECT_EQ(log, (std::vector<Tick>{0, 10, 15}));
  EXPECT_TRUE(t.done());
}

Task inner(Simulator& s, std::vector<int>& log) {
  log.push_back(1);
  co_await delay(s, 3);
  log.push_back(2);
}

Task outer(Simulator& s, std::vector<int>& log) {
  log.push_back(0);
  co_await inner(s, log);
  log.push_back(3);
}

TEST(Task, NestedAwaitResumesParent) {
  Simulator s;
  std::vector<int> log;
  Task t = outer(s, log);
  s.schedule(0, [&t] { t.start(); });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

Task thrower() {
  throw std::runtime_error("boom");
  co_return;  // unreachable; marks this as a coroutine
}

TEST(Task, ExceptionIsCapturedAndRethrown) {
  Task t = thrower();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_failed(), std::runtime_error);
}

Task awaits_future(SimFuture<int> f, int& out) {
  out = co_await f;
}

TEST(SimFuture, ResolvesAcrossCallback) {
  SimFuture<int> f;
  int out = 0;
  Task t = awaits_future(f, out);
  t.start();
  EXPECT_EQ(out, 0);
  f.resolver()(7);
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(t.done());
}

TEST(SimFuture, ImmediateValueSkipsSuspension) {
  SimFuture<int> f;
  f.resolver()(3);
  int out = 0;
  Task t = awaits_future(f, out);
  t.start();
  EXPECT_EQ(out, 3);
}

}  // namespace
}  // namespace bcsim::sim
