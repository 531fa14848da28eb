// Per-thread recycling of the small heap blocks a simulation makes and
// drops once per memory operation or chain propagation: coroutine frames
// (sim::Task), future states (sim::SimFuture) and chain snapshots
// (net::Chain).
//
// Each thread keeps one free list per 64-byte size class; a released block
// goes to the releasing thread's list and is handed out again by that
// thread. No lock and no atomic is needed: a machine (and every block it
// uses) is driven by one thread at a time — sim::parallel_map runs whole
// machines per worker — and a block released on another thread than the
// one that made it simply joins that thread's list. Blocks over
// kMaxPooledBytes go straight to operator new/delete. A thread's lists free
// their blocks when the thread exits; steady-state runs allocate nothing.
#pragma once

#include <cstddef>

namespace bcsim::sim {

/// Largest block size the pool recycles; larger requests are not pooled.
inline constexpr std::size_t kMaxPooledBytes = 2048;

/// A block of at least `bytes` bytes, aligned like operator new's.
[[nodiscard]] void* pool_allocate(std::size_t bytes);

/// Returns a block from pool_allocate(bytes), with the same `bytes`.
void pool_deallocate(void* p, std::size_t bytes) noexcept;

}  // namespace bcsim::sim
