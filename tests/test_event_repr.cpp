// Pins the event queue's observable behavior to one heap over every event.
//
// The kernel's EventQueue (sim/event_queue.hpp) is a timing wheel over a
// pooled node array, with an overflow heap for ticks outside its window.
// It is only correct if it is *bit-identical* to the plainest queue there
// is: every (tick, key, seq) total order a single binary heap produces,
// the wheel must reproduce exactly, under every schedule seed, including
// events pushed while their tick is being drained, events far enough ahead
// to wait in the overflow heap, pushes behind the current tick, and queues
// that were drained or cleared far into simulated time. ReferenceEventQueue
// below is that heap (the kernel's original queue, copied verbatim), kept
// as the oracle; the tests drive both with identical operation scripts and
// demand identical firing orders. A last test bounds what the queue
// allocates over a long life, counted by this binary's operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/work_queue_model.hpp"

namespace {
std::size_t g_allocated_bytes = 0;
}  // namespace

// Counts the bytes of every heap allocation of this test binary, so a test
// can bound what a code path allocates over its life. All three stay out of
// line: inlined into a container, GCC 12 pairs the malloc() or free() in
// their bodies with the container's new or delete and warns of a mismatch
// that is not one.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocated_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bcsim::sim {
namespace {

/// The pre-rewrite EventQueue: one binary heap of (tick, key, seq,
/// std::function). Copied verbatim (modulo the class name) to serve as the
/// ordering oracle.
class ReferenceEventQueue {
 public:
  using Fn = std::function<void()>;

  void set_schedule_seed(std::uint64_t seed) noexcept { schedule_seed_ = seed; }

  std::uint64_t push(Tick at, Fn fn) {
    heap_.push_back(Item{at, tie_key(next_seq_), next_seq_, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return next_seq_++;
  }

  std::uint64_t push_channel(Tick at, std::uint64_t channel, Fn fn) {
    const std::uint64_t key =
        (schedule_seed_ == 0)
            ? next_seq_
            : SplitMix64(schedule_seed_ ^ (channel * 0x9e3779b97f4a7c15ULL)).next();
    heap_.push_back(Item{at, key, next_seq_, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return next_seq_++;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  [[nodiscard]] std::pair<Tick, Fn> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Item item = std::move(heap_.back());
    heap_.pop_back();
    return {item.at, std::move(item.fn)};
  }

  void clear() noexcept { heap_.clear(); }

 private:
  struct Item {
    Tick at;
    std::uint64_t key;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept {
    if (schedule_seed_ == 0) return seq;
    return SplitMix64(schedule_seed_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
  }

  std::vector<Item> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t schedule_seed_ = 0;
};

/// One scripted operation: push (possibly on a channel) or pop-and-fire.
struct Op {
  enum Kind { kPush, kPushChannel, kPop } kind;
  Tick at = 0;
  std::uint64_t channel = 0;
};

/// Deterministic op script: bursts of pushes with clustered ticks (many
/// same-tick collisions), interleaved with drains, some ops on channels.
std::vector<Op> make_script(std::uint64_t rng_seed, int n_ops) {
  Rng rng(rng_seed);
  std::vector<Op> ops;
  Tick now = 0;
  int pending = 0;
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 6 || pending == 0) {
      // Cluster ticks so same-tick ties dominate the ordering.
      const Tick at = now + rng.next_below(4);
      if (rng.chance(0.3)) {
        ops.push_back({Op::kPushChannel, at, rng.next_below(5)});
      } else {
        ops.push_back({Op::kPush, at, 0});
      }
      ++pending;
    } else {
      ops.push_back({Op::kPop});
      --pending;
      if (rng.chance(0.25)) ++now;  // time advances between some drains
    }
  }
  for (; pending > 0; --pending) ops.push_back({Op::kPop});
  return ops;
}

/// Deterministic op script over a span of ticks much wider than the
/// wheel's window: pushes land up to `span` ticks ahead of a moving `now`,
/// on a coarse grid of ticks so a far tick is pushed again once the window
/// has reached it (migrated and direct events then share a slot), and with
/// probability `past` behind `now`, where the queue may already have
/// drained. `base` offsets every tick.
std::vector<Op> make_wide_script(std::uint64_t rng_seed, int n_ops, Tick span, double past,
                                 Tick base = 0) {
  Rng rng(rng_seed);
  std::vector<Op> ops;
  Tick now = 0;
  int pending = 0;
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 6 || pending == 0) {
      Tick at = now + rng.next_below(span);
      at -= at % 61;  // a coarse grid: many pushes share each tick
      if (now > 0 && rng.chance(past)) at = now - 1 - rng.next_below(std::min<Tick>(now, 300));
      if (rng.chance(0.3)) {
        ops.push_back({Op::kPushChannel, base + at, rng.next_below(5)});
      } else {
        ops.push_back({Op::kPush, base + at, 0});
      }
      ++pending;
    } else {
      ops.push_back({Op::kPop});
      --pending;
      if (rng.chance(0.3)) now += rng.next_below(400);
    }
  }
  for (; pending > 0; --pending) ops.push_back({Op::kPop});
  return ops;
}

/// Runs the script against any queue with the EventQueue interface and
/// returns the firing order as (tick, event-id) pairs. Every pushed callback
/// records its own id; pops fire the callback immediately (as the simulator
/// main loop does).
template <typename Queue>
std::vector<std::pair<Tick, int>> run_script(Queue& q, const std::vector<Op>& ops) {
  std::vector<std::pair<Tick, int>> fired;
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = next_id++;
        // Tick recorded as kNever here; the pop below patches in the tick
        // the queue actually reported.
        q.push(op.at, [&fired, id] { fired.emplace_back(kNever, id); });
        break;
      }
      case Op::kPushChannel: {
        const int id = next_id++;
        q.push_channel(op.at, op.channel, [&fired, id] { fired.emplace_back(kNever, id); });
        break;
      }
      case Op::kPop: {
        auto [at, fn] = q.pop();
        fn();
        fired.back().first = at;  // patch the recorded tick
        break;
      }
    }
  }
  return fired;
}

using SeedList = std::vector<std::uint64_t>;
const SeedList kSeeds = {0, 1, 42, 7'777, 0xdeadbeefULL};

TEST(EventRepr, PushAllThenDrainMatchesReferenceAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    EventQueue q;
    ReferenceEventQueue ref;
    q.set_schedule_seed(seed);
    ref.set_schedule_seed(seed);
    // All pushes first, then a full drain: the pure heap-order case.
    std::vector<Op> ops;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      if (rng.chance(0.3)) {
        ops.push_back({Op::kPushChannel, rng.next_below(50), rng.next_below(4)});
      } else {
        ops.push_back({Op::kPush, rng.next_below(50), 0});
      }
    }
    for (int i = 0; i < 500; ++i) ops.push_back({Op::kPop});
    EXPECT_EQ(run_script(q, ops), run_script(ref, ops)) << "schedule seed " << seed;
  }
}

TEST(EventRepr, InterleavedPushPopMatchesReferenceAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint64_t script : {11ULL, 22ULL, 33ULL}) {
      EventQueue q;
      ReferenceEventQueue ref;
      q.set_schedule_seed(seed);
      ref.set_schedule_seed(seed);
      const auto ops = make_script(script, 800);
      EXPECT_EQ(run_script(q, ops), run_script(ref, ops))
          << "schedule seed " << seed << ", script " << script;
    }
  }
}

TEST(EventRepr, MidDrainSameTickPushesMatchReference) {
  // Callbacks that push more work at the *same* tick while that tick is
  // being drained — the bucketed queue must weave them into the unfired
  // tail exactly where the old heap would have fired them.
  for (const std::uint64_t seed : kSeeds) {
    auto drive = [seed](auto& q) {
      q.set_schedule_seed(seed);
      std::vector<int> fired;
      int next_id = 0;
      std::function<void(int)> spawn = [&](int id) {
        fired.push_back(id);
        if (id % 3 == 0 && next_id < 200) {
          const int a = next_id++;
          q.push(7, [&spawn, a] { spawn(a); });
        }
        if (id % 5 == 0 && next_id < 200) {
          const int b = next_id++;
          q.push_channel(7, 2, [&spawn, b] { spawn(b); });
        }
      };
      for (int i = 0; i < 40; ++i) {
        const int id = next_id++;
        q.push(7, [&spawn, id] { spawn(id); });
      }
      while (!q.empty()) q.pop().second();
      return fired;
    };
    EventQueue q;
    ReferenceEventQueue ref;
    EXPECT_EQ(drive(q), drive(ref)) << "schedule seed " << seed;
  }
}

TEST(EventRepr, EarlierTickPushMidDrainStillFiresFirst) {
  // The raw queue API allows pushing an event earlier than the tick being
  // drained (the simulator never does, but tests and tools may). The
  // earlier event must pop before the remainder of the current tick.
  EventQueue q;
  std::vector<std::pair<Tick, int>> fired;
  q.push(10, [&] { fired.emplace_back(10, 0); });
  q.push(10, [&q, &fired] {
    fired.emplace_back(10, 1);
    q.push(5, [&fired] { fired.emplace_back(5, 2); });
  });
  q.push(10, [&] { fired.emplace_back(10, 3); });
  // Fire id 0 and id 1; id 1 schedules id 2 at tick 5 < 10.
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    (void)at;
    fn();
  }
  const std::vector<std::pair<Tick, int>> want = {{10, 0}, {10, 1}, {5, 2}, {10, 3}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventRepr, ClearResetsSequenceNumbering) {
  // A cleared queue must behave exactly like a fresh one: the same pushes
  // must fire in the same order. Before the fix, clear() left next_seq_
  // at its high-water mark, so a nonzero schedule seed hashed different
  // (seed, seq) pairs after a clear and the "same" program fired in a
  // different order.
  const std::uint64_t seed = 42;
  auto record = [&](EventQueue& q) {
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) q.push(3, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop().second();
    return order;
  };
  EventQueue fresh;
  fresh.set_schedule_seed(seed);
  const auto want = record(fresh);

  EventQueue recycled;
  recycled.set_schedule_seed(seed);
  for (int i = 0; i < 37; ++i) recycled.push(1, [] {});
  for (int i = 0; i < 10; ++i) (void)recycled.pop();
  recycled.clear();
  EXPECT_TRUE(recycled.empty());
  EXPECT_EQ(record(recycled), want);
}

TEST(EventRepr, ClearKeepsScheduleSeed) {
  EventQueue q;
  q.set_schedule_seed(1234);
  q.push(1, [] {});
  q.clear();
  EXPECT_EQ(q.schedule_seed(), 1234u);
}

constexpr Tick kWindow = EventQueue::kSlots;

TEST(EventRepr, FarPushesMigrateIntoTheWheelInOrder) {
  // Delays up to three windows: most events wait in the overflow heap and
  // migrate into the wheel as it advances, some onto ticks that direct
  // pushes reach later.
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint64_t script : {5ULL, 6ULL, 7ULL}) {
      EventQueue q;
      ReferenceEventQueue ref;
      q.set_schedule_seed(seed);
      ref.set_schedule_seed(seed);
      const auto ops = make_wide_script(script, 3000, 3 * kWindow, 0.0);
      EXPECT_EQ(run_script(q, ops), run_script(ref, ops))
          << "schedule seed " << seed << ", script " << script;
    }
  }
}

TEST(EventRepr, PastPushesMixedWithFarPushesMatchReference) {
  // Pushes behind the drained tick share the overflow heap with far
  // events; a past event at the heap's top must not hold back the far
  // events behind it from migrating.
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint64_t script : {8ULL, 9ULL, 10ULL}) {
      EventQueue q;
      ReferenceEventQueue ref;
      q.set_schedule_seed(seed);
      ref.set_schedule_seed(seed);
      const auto ops = make_wide_script(script, 3000, 2 * kWindow, 0.15);
      EXPECT_EQ(run_script(q, ops), run_script(ref, ops))
          << "schedule seed " << seed << ", script " << script;
    }
  }
}

TEST(EventRepr, DrainedFarAheadThenLowerTicksMatchesReference) {
  // A queue drained to tick 10^6 that then takes pushes at lower absolute
  // ticks (the push/pop microbenchmark's pattern): the empty queue moves
  // its window to the next push instead of treating it as the past.
  for (const std::uint64_t seed : kSeeds) {
    EventQueue q;
    ReferenceEventQueue ref;
    q.set_schedule_seed(seed);
    ref.set_schedule_seed(seed);
    std::vector<Op> ops = {{Op::kPush, 1'000'000, 0}, {Op::kPop}};
    for (const std::uint64_t script : {11ULL, 12ULL}) {
      const auto more = make_script(script, 800);
      ops.insert(ops.end(), more.begin(), more.end());
      const auto wide = make_wide_script(script, 800, 2 * kWindow, 0.1);
      ops.insert(ops.end(), wide.begin(), wide.end());
    }
    EXPECT_EQ(run_script(q, ops), run_script(ref, ops)) << "schedule seed " << seed;
  }
}

TEST(EventRepr, ClearFarAheadReplaysLikeAFreshQueue) {
  // clear() at tick 10^6, with wheel and overflow events still pending,
  // must leave a queue that replays any script exactly like a fresh one.
  for (const std::uint64_t seed : kSeeds) {
    const auto ops = make_wide_script(13, 2000, 3 * kWindow, 0.1);
    EventQueue fresh;
    ReferenceEventQueue ref;
    fresh.set_schedule_seed(seed);
    ref.set_schedule_seed(seed);
    const auto want = run_script(ref, ops);
    EXPECT_EQ(run_script(fresh, ops), want) << "schedule seed " << seed;

    EventQueue recycled;
    recycled.set_schedule_seed(seed);
    for (Tick t = 0; t < 64; ++t) recycled.push(1'000'000 + t * 97, [] {});
    for (int i = 0; i < 20; ++i) recycled.pop().second();
    recycled.push(999'000, [] {});  // behind the drained tick
    recycled.clear();
    EXPECT_TRUE(recycled.empty());
    EXPECT_EQ(run_script(recycled, ops), want) << "schedule seed " << seed;
  }
}

TEST(EventRepr, RetainedMemoryIsBoundedByPeakPending) {
  // 10^6 events, never more than 64 pending, in rounds of a 64-event
  // burst on one tick and 64 events on distinct ticks up to ~6000 ahead
  // (past the window, so some wait in the overflow heap). The queue's
  // storage is sized by its peak pending count, not by the busiest tick
  // or the number of ticks it has seen.
  const std::size_t before = g_allocated_bytes;
  {
    EventQueue q;
    Rng rng(17);
    std::vector<Tick> offsets(64);
    for (Tick i = 0; i < 64; ++i) offsets[i] = 1 + i * 90;
    std::uint64_t fired = 0;
    Tick now = 0;
    for (int round = 0; fired < 1'000'000; ++round) {
      // Distinct ticks are pushed in a fresh random order each time, so a
      // queue that recycled per-tick storage would hand the next burst a
      // different tick's storage every round.
      for (std::size_t i = offsets.size() - 1; i > 0; --i) {
        std::swap(offsets[i], offsets[rng.next_below(i + 1)]);
      }
      for (const Tick offset : offsets) {
        const Tick at = (round % 2 == 0) ? now + 1 : now + offset + rng.next_below(90);
        q.push(at, [&fired] { ++fired; });
      }
      while (!q.empty()) {
        auto [at, fn] = q.pop();
        now = at;
        fn();
      }
    }
  }
  EXPECT_LT(g_allocated_bytes - before, std::size_t{128} * 1024);
}

TEST(EventRepr, MachineDigestIsRerunStable) {
  // Whole-machine determinism: two identical runs must agree on every
  // statistic (the digest the bench harness and CI gate on).
  auto run_once = [] {
    core::MachineConfig cfg;
    cfg.n_nodes = 8;
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = core::Consistency::kBuffered;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
    cfg.validate();
    core::Machine m(cfg);
    workload::WorkQueueConfig wq;
    wq.total_tasks = 48;
    wq.grain = 15;
    workload::WorkQueueWorkload w(m, wq);
    w.spawn_all(m);
    (void)m.run(1'000'000'000ULL);
    return m.stats_digest();
  };
  const std::uint64_t a = run_once();
  const std::uint64_t b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

}  // namespace
}  // namespace bcsim::sim
