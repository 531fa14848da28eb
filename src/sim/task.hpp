// C++20 coroutine support for processor programs.
//
// A simulated processor's "program" (a workload, a lock algorithm, a test
// scenario) is written as an ordinary coroutine returning sim::Task:
//
//   sim::Task worker(core::Processor& p) {
//     co_await p.compute(10);
//     Word v = co_await p.read(addr);
//     co_await p.write_global(addr, v + 1);
//   }
//
// Tasks are lazily started (initial_suspend is suspend_always) so that a
// Machine can construct all programs and then kick them off at tick 0.
// Awaiting a sub-task uses symmetric transfer; completion of an asynchronous
// hardware request resumes the coroutine through SimFuture, directly inside
// the completing event (so resumption happens at exactly the right tick).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "sim/block_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// A lazily-started coroutine task with void result.
class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    bool finished = false;
    std::exception_ptr exception{};

    /// Frames come from the per-thread block pool: workloads and sync
    /// algorithms await a sub-task per memory reference or lock operation.
    static void* operator new(std::size_t bytes) { return pool_allocate(bytes); }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      pool_deallocate(p, bytes);
    }

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) const noexcept {
        h.promise().finished = true;
        if (auto cont = h.promise().continuation) return cont;
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Begins execution (runs until the first suspension point). Top-level
  /// tasks only; awaited sub-tasks are started by the awaiter.
  void start() { h_.resume(); }

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return h_ && h_.promise().finished; }

  /// Re-raises an exception that escaped a fire-and-forget task. Call after
  /// the simulation loop returns; a silently swallowed failure would make a
  /// broken experiment look like a slow one.
  void rethrow_if_failed() const {
    if (h_ && h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  /// Awaiting a task: starts it, suspends the parent, resumes the parent
  /// when the task finishes (symmetric transfer, no stack growth).
  auto operator co_await() const noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.promise().finished; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) const noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() const {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_ = nullptr;
};

/// One-shot future bridging callback-style hardware completion to a
/// coroutine await. The state outlives both sides regardless of which is
/// destroyed first: the future, its awaiter and every resolver each hold
/// one reference to it.
///
/// Every memory operation makes one future, so the state comes from the
/// per-thread block pool (sim/block_pool.hpp) and its reference count is a
/// plain integer — one machine, and every future it makes, is driven by one
/// thread at a time. The last reference destroys the state and returns its
/// block, so a reused state always starts clean.
template <typename T>
class SimFuture {
  struct State {
    std::optional<T> value;
    std::coroutine_handle<> waiter{};
    std::uint32_t refs = 1;
  };

  static State* acquire() { return ::new (pool_allocate(sizeof(State))) State; }
  static State* retain(State* s) noexcept {
    ++s->refs;
    return s;
  }
  static void release(State* s) noexcept {
    if (--s->refs != 0) return;
    s->~State();
    pool_deallocate(s, sizeof(State));
  }

  /// Owning reference to a state (the future's, an awaiter's, a resolver's).
  class Ref {
   public:
    explicit Ref(State* s) noexcept : s_(s) {}
    Ref(const Ref& o) noexcept : s_(retain(o.s_)) {}
    Ref(Ref&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(s_, o.s_);
      return *this;
    }
    ~Ref() {
      if (s_ != nullptr) release(s_);
    }
    State* operator->() const noexcept { return s_; }

   private:
    State* s_;
  };

 public:
  /// Callable handed to the hardware side; invoking it fulfills the future
  /// and resumes the awaiting coroutine immediately (same tick).
  class Resolver {
   public:
    void operator()(T v) const {
      st_->value.emplace(std::move(v));
      if (auto w = std::exchange(st_->waiter, nullptr)) w.resume();
    }

   private:
    friend class SimFuture;
    explicit Resolver(Ref st) noexcept : st_(std::move(st)) {}
    Ref st_;
  };

  SimFuture() : st_(acquire()) {}

  [[nodiscard]] Resolver resolver() const { return Resolver(st_); }

  [[nodiscard]] bool ready() const noexcept { return st_->value.has_value(); }

  auto operator co_await() const noexcept {
    struct Awaiter {
      Ref st;
      bool await_ready() const noexcept { return st->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) const noexcept { st->waiter = h; }
      T await_resume() const { return std::move(*st->value); }
    };
    return Awaiter{st_};
  }

 private:
  Ref st_;
};

/// Tag type for void-valued futures.
struct Unit {};
using SimSignal = SimFuture<Unit>;

/// Awaitable that suspends the coroutine for `dt` simulated cycles.
[[nodiscard]] inline auto delay(Simulator& sim, Tick dt) {
  struct Awaiter {
    Simulator& sim;
    Tick dt;
    bool await_ready() const noexcept { return dt == 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule(dt, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{sim, dt};
}

}  // namespace bcsim::sim
