#include "workload/sync_model.hpp"

#include "workload/access.hpp"

namespace bcsim::workload {

using core::Machine;
using core::Processor;

SyncModelWorkload::SyncModelWorkload(Machine& machine, SyncModelConfig cfg)
    : cfg_(cfg), alloc_(machine.make_allocator()) {
  shared_blocks_.reserve(cfg_.n_shared_blocks);
  for (std::uint32_t i = 0; i < cfg_.n_shared_blocks; ++i) {
    shared_blocks_.push_back(alloc_.alloc_blocks(1));
  }
  locks_.reserve(cfg_.n_locks);
  for (std::uint32_t i = 0; i < cfg_.n_locks; ++i) {
    locks_.push_back(
        sync::make_mutex(machine.config().lock_impl, alloc_, machine.n_nodes()));
    // Data protected by the lock: rides the lock block under CBL; lives in
    // its own block for software locks (keeps the lock word uncontended by
    // data traffic).
    lock_data_.push_back(locks_.back()->data_rides_lock() ? locks_.back()->lock_addr()
                                                          : alloc_.alloc_blocks(1));
  }
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, machine.n_nodes());
}

bool SyncModelWorkload::lock_slot(std::uint32_t t) const {
  sim::SplitMix64 h(cfg_.schedule_seed ^ (static_cast<std::uint64_t>(t) * 0x9e3779b9ULL));
  const double u = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
  return u < cfg_.lock_ratio;
}

sim::Task SyncModelWorkload::data_reference(Processor& p) {
  auto& rng = p.rng();
  if (!rng.chance(cfg_.shared_ratio)) {
    co_await p.private_access();
    co_return;
  }
  const Addr base = shared_blocks_[rng.next_below(shared_blocks_.size())];
  const Addr a = base + rng.next_below(p.config().block_words);
  if (rng.chance(cfg_.read_ratio)) {
    co_await shared_read(p, a);
  } else {
    co_await shared_write(p, a, rng.next_u64());
  }
}

sim::Task SyncModelWorkload::run(Processor& p) {
  auto& rng = p.rng();
  for (std::uint32_t t = 0; t < cfg_.tasks_per_proc; ++t) {
    for (std::uint32_t r = 0; r < cfg_.grain; ++r) {
      co_await data_reference(p);
    }
    if (lock_slot(t)) {
      // Lock-protected critical section: under CBL the protected words
      // arrive with the grant itself.
      const std::size_t li = rng.next_below(locks_.size());
      auto& mtx = *locks_[li];
      co_await mtx.acquire(p);
      const bool rides = mtx.data_rides_lock();
      const std::uint32_t bw = p.config().block_words;
      for (std::uint32_t r = 0; r < cfg_.cs_references; ++r) {
        const Addr a = lock_data_[li] + rng.next_below(bw);
        if (rng.chance(cfg_.read_ratio)) {
          co_await cs_read(p, a, rides);
        } else {
          co_await cs_write(p, a, rng.next_u64(), rides);
        }
      }
      co_await mtx.release(p);
    } else {
      co_await barrier_->wait(p);
    }
  }
  // Final rendezvous so completion time covers every processor's work.
  co_await barrier_->wait(p);
}

void SyncModelWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    machine.spawn(run(machine.processor(i)));
  }
}

}  // namespace bcsim::workload
