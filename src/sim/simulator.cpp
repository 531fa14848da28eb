#include "sim/simulator.hpp"

namespace bcsim::sim {

// Both loops peek with next_tick() before they pop(). next_tick() moves the
// queue's window onto the earliest event, so the pop() that follows takes
// it without searching again: one wheel search per event.

RunResult Simulator::run(Tick max_cycles) {
  stop_requested_ = false;
  const Tick deadline = (max_cycles == kNever) ? kNever : saturating_add(now_, max_cycles);
  while (!queue_.empty()) {
    if (stop_requested_) return RunResult::kStopped;
    const Tick t = queue_.next_tick();
    if (t > deadline) return RunResult::kBudget;
    auto [at, fn] = queue_.pop();
    now_ = at;
    ++events_processed_;
    fn();
  }
  return stop_requested_ ? RunResult::kStopped : RunResult::kIdle;
}

RunResult Simulator::run_until(Tick until) {
  stop_requested_ = false;
  while (!queue_.empty() && queue_.next_tick() <= until) {
    if (stop_requested_) return RunResult::kStopped;
    auto [at, fn] = queue_.pop();
    now_ = at;
    ++events_processed_;
    fn();
  }
  if (stop_requested_) return RunResult::kStopped;
  if (now_ < until) now_ = until;
  return RunResult::kIdle;
}

}  // namespace bcsim::sim
