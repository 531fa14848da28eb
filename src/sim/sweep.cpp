#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace bcsim::sim {

std::size_t sweep_threads() noexcept {
  if (const char* env = std::getenv("BCSIM_SWEEP_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // Strict decimal: a leading digit (no whitespace/sign), nothing after
    // the number, and no overflow. strtol alone would accept " 8" and read
    // "1e3" as 1.
    const bool numeric = std::isdigit(static_cast<unsigned char>(env[0])) != 0 &&
                         *end == '\0' && errno != ERANGE;
    if (numeric && v >= 1) {
      return std::min(static_cast<std::size_t>(v), kMaxSweepThreads);
    }
    // "1e3", "4x", "", out-of-range, or < 1: ignore it loudly (once) rather
    // than silently running a 1000-way sweep on one thread.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "bcsim: ignoring invalid BCSIM_SWEEP_THREADS='%s' "
                   "(expected an integer in [1, %zu]); using hardware default\n",
                   env, kMaxSweepThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, kMaxSweepThreads);
}

}  // namespace bcsim::sim
