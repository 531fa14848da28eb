#include "workload/work_queue_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "workload/access.hpp"

namespace bcsim::workload {

using core::Machine;
using core::Processor;

WorkQueueWorkload::WorkQueueWorkload(Machine& machine, WorkQueueConfig cfg)
    : cfg_(cfg), alloc_(machine.make_allocator()) {
  if (cfg_.total_tasks == 0) throw std::invalid_argument("work queue: total_tasks == 0");
  shared_blocks_.reserve(cfg_.n_shared_blocks);
  for (std::uint32_t i = 0; i < cfg_.n_shared_blocks; ++i) {
    shared_blocks_.push_back(alloc_.alloc_blocks(1));
  }
  queue_lock_ = sync::make_mutex(machine.config().lock_impl, alloc_, machine.n_nodes());
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, machine.n_nodes());

  // Queue metadata: colocated with the CBL lock when the block is big
  // enough (the paper's data-rides-lock pattern), otherwise its own block.
  meta_rides_lock_ =
      queue_lock_->data_rides_lock() && machine.config().block_words >= 4;
  meta_ = meta_rides_lock_ ? queue_lock_->lock_addr() : alloc_.alloc_words(4);
  slots_ = alloc_.alloc_words(cfg_.total_tasks);

  // Seed tasks (placed directly in backing memory before the run starts).
  const std::uint32_t seeds =
      cfg_.initial_tasks != 0 ? cfg_.initial_tasks
                              : std::min(machine.n_nodes(), cfg_.total_tasks);
  machine.poke_memory(head_addr(), 0);
  machine.poke_memory(tail_addr(), seeds);
  machine.poke_memory(generated_addr(), seeds);
  machine.poke_memory(done_addr(), 0);
  for (std::uint32_t i = 0; i < seeds; ++i) {
    machine.poke_memory(slot_addr(i), 0x7a5c0000ULL + i);
  }
}

std::uint64_t WorkQueueWorkload::tasks_executed(const Machine& machine) const {
  return machine.peek_coherent(done_addr());
}

sim::Task WorkQueueWorkload::data_reference(Processor& p) {
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

sim::Task WorkQueueWorkload::execute_task(Processor& p, Word /*task_seed*/) {
  for (std::uint32_t r = 0; r < cfg_.grain; ++r) {
    co_await data_reference(p);
  }
}

sim::Task WorkQueueWorkload::run(Processor& p) {
  auto& rng = p.rng();
  unsigned idle_spins = 0;
  for (;;) {
    co_await queue_lock_->acquire(p);
    const bool rides = meta_rides_lock_;
    const Word done = co_await cs_read(p, done_addr(), rides);
    if (done >= cfg_.total_tasks) {
      co_await queue_lock_->release(p);
      break;
    }
    Word head = co_await cs_read(p, head_addr(), rides);
    Word tail = co_await cs_read(p, tail_addr(), rides);
    Word gen = co_await cs_read(p, generated_addr(), rides);
    if (head == tail) {
      if (gen < cfg_.total_tasks) {
        // Queue drained but budget remains: a fresh independent task
        // becomes ready (models new tasks whose dependencies resolved).
        co_await cs_write(p, slot_addr(tail), 0x5eed0000ULL + gen, /*rides=*/false);
        co_await cs_write(p, tail_addr(), tail + 1, rides);
        co_await cs_write(p, generated_addr(), gen + 1, rides);
        co_await queue_lock_->release(p);
        idle_spins = 0;
        continue;
      }
      // All generated tasks are being executed elsewhere; back off briefly.
      co_await queue_lock_->release(p);
      ++idle_spins;
      co_await p.compute(1 + rng.backoff(idle_spins + 2, 512));
      continue;
    }
    idle_spins = 0;
    const Word seed = co_await cs_read(p, slot_addr(head), /*rides=*/false);
    co_await cs_write(p, head_addr(), head + 1, rides);
    co_await cs_write(p, done_addr(), done + 1, rides);
    // "If a new task is generated as a result of the processing, it is
    // inserted into the queue." The spawn decision is made while the queue
    // is held so `generated` stays consistent.
    if (gen < cfg_.total_tasks && rng.chance(cfg_.spawn_prob)) {
      co_await cs_write(p, slot_addr(tail), seed * 2654435761ULL + 1, /*rides=*/false);
      co_await cs_write(p, tail_addr(), tail + 1, rides);
      co_await cs_write(p, generated_addr(), gen + 1, rides);
    }
    co_await queue_lock_->release(p);
    co_await execute_task(p, seed);
  }
  co_await barrier_->wait(p);
}

void WorkQueueWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    machine.spawn(run(machine.processor(i)));
  }
}

}  // namespace bcsim::workload
