// Parallel parameter-sweep runner: runs independent simulation
// configurations concurrently on host threads. Each simulation is itself
// single-threaded and deterministic; only whole experiments run in
// parallel, so no simulated state is shared across threads.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bcsim::sim {

/// The one clamp applied to sweep parallelism, from any source: each worker
/// runs a whole single-threaded Machine, so beyond this fan-out the memory
/// footprint dwarfs any scheduling win.
inline constexpr std::size_t kMaxSweepThreads = 64;

/// Number of worker threads to use for sweeps: BCSIM_SWEEP_THREADS if set
/// to a valid integer >= 1 (invalid values are ignored with a one-time
/// warning), else hardware concurrency; either way clamped to
/// [1, kMaxSweepThreads].
[[nodiscard]] std::size_t sweep_threads() noexcept;

/// Runs fn(i) for i in [0, n) across worker threads; results are returned
/// in index order. The first exception (if any) is re-thrown after all
/// workers finish.
template <typename R>
std::vector<R> parallel_map(std::size_t n, const std::function<R(std::size_t)>& fn) {
  std::vector<R> results(n);
  if (n == 0) return results;
  const std::size_t workers = std::min(sweep_threads(), n);
  std::mutex mu;
  std::size_t next = 0;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      std::size_t i;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (next >= n || error) return;
        i = next++;
      }
      try {
        results[i] = fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace bcsim::sim
