#include "workload/stencil.hpp"

#include <bit>

#include "sim/random.hpp"
#include "workload/access.hpp"
#include "workload/linear_solver.hpp"  // pack/unpack helpers

namespace bcsim::workload {

using core::Machine;
using core::Processor;

namespace {
Word pack(double d) { return LinearSolverWorkload::pack(d); }
double unpack(Word w) { return LinearSolverWorkload::unpack(w); }
}  // namespace

StencilWorkload::StencilWorkload(Machine& machine, StencilConfig cfg)
    : cfg_(cfg), n_(machine.n_nodes()), total_(machine.n_nodes() * cfg.cells_per_proc),
      alloc_(machine.make_allocator()) {
  base_ = alloc_.alloc_words(total_);
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, n_);
  sim::Rng rng(cfg_.data_seed);
  init_.resize(total_);
  for (std::uint32_t i = 0; i < total_; ++i) {
    init_[i] = rng.next_double() * 10.0;
    machine.poke_memory(cell_addr(i), pack(init_[i]));
  }
}

bool StencilWorkload::chunk_boundary(std::uint32_t i) const {
  const std::uint32_t in_chunk = i % cfg_.cells_per_proc;
  return in_chunk == 0 || in_chunk == cfg_.cells_per_proc - 1;
}

sim::Task StencilWorkload::run(Processor& p) {
  const std::uint32_t lo = p.id() * cfg_.cells_per_proc;
  const std::uint32_t hi = lo + cfg_.cells_per_proc;
  // Local mirror of the owned chunk (a real program would keep these in
  // registers/private memory anyway; shared traffic is what we model).
  std::vector<double> mine(cfg_.cells_per_proc);
  for (std::uint32_t i = lo; i < hi; ++i) {
    mine[i - lo] = unpack(co_await p.read(cell_addr(i)));
  }
  for (std::uint32_t sweep = 0; sweep < cfg_.sweeps; ++sweep) {
    for (std::uint32_t color = 0; color < 2; ++color) {
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (i % 2 != color) continue;
        if (i == 0 || i == total_ - 1) continue;  // fixed boundary
        // Neighbors: local mirror when owned, halo read when remote. Halo
        // cells are the other color, so they are stable during this
        // half-sweep.
        double left, right;
        if (i - 1 >= lo) {
          left = mine[i - 1 - lo];
        } else {
          left = unpack(co_await shared_read(p, cell_addr(i - 1)));
        }
        if (i + 1 < hi) {
          right = mine[i + 1 - lo];
        } else {
          right = unpack(co_await shared_read(p, cell_addr(i + 1)));
        }
        const double v = 0.5 * (left + right);
        mine[i - lo] = v;
        co_await p.compute(4);
        if (chunk_boundary(i)) {
          // Publish: a neighbor subscribes to this cell.
          co_await shared_write(p, cell_addr(i), pack(v));
        } else {
          co_await p.write(cell_addr(i), pack(v));
        }
      }
      // CP-Synch before the next half-sweep reads our published halos.
      co_await barrier_->wait(p);
    }
  }
  // Final publish of the whole chunk so result() can read it from memory.
  for (std::uint32_t i = lo; i < hi; ++i) {
    co_await shared_write(p, cell_addr(i), pack(mine[i - lo]));
  }
  co_await p.flush_buffer();
  co_await barrier_->wait(p);
}

void StencilWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < n_; ++i) machine.spawn(run(machine.processor(i)));
}

std::vector<double> StencilWorkload::reference() const {
  std::vector<double> x = init_;
  for (std::uint32_t sweep = 0; sweep < cfg_.sweeps; ++sweep) {
    for (std::uint32_t color = 0; color < 2; ++color) {
      for (std::uint32_t i = 1; i + 1 < total_; ++i) {
        if (i % 2 != color) continue;
        x[i] = 0.5 * (x[i - 1] + x[i + 1]);
      }
    }
  }
  return x;
}

std::vector<double> StencilWorkload::result(const Machine& machine) const {
  std::vector<double> x(total_);
  for (std::uint32_t i = 0; i < total_; ++i) {
    x[i] = unpack(machine.peek_coherent(cell_addr(i)));
  }
  return x;
}

}  // namespace bcsim::workload
