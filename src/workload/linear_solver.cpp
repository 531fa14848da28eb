#include "workload/linear_solver.hpp"

#include <cmath>

#include "sim/random.hpp"
#include "workload/access.hpp"

namespace bcsim::workload {

using core::Machine;
using core::Processor;

LinearSolverWorkload::LinearSolverWorkload(Machine& machine, LinearSolverConfig cfg)
    : cfg_(cfg), n_(machine.n_nodes()), alloc_(machine.make_allocator()) {
  // Diagonally dominant system: Jacobi converges.
  sim::Rng rng(cfg_.matrix_seed);
  a_.resize(static_cast<std::size_t>(n_) * n_);
  b_.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    for (std::uint32_t j = 0; j < n_; ++j) {
      a_[static_cast<std::size_t>(i) * n_ + j] =
          (i == j) ? static_cast<double>(n_) + 1.0 + rng.next_double()
                   : rng.next_double();
    }
    b_[i] = rng.next_double() * static_cast<double>(n_);
  }

  a_base_ = alloc_.alloc_words(static_cast<std::uint64_t>(n_) * n_);
  b_base_ = alloc_.alloc_words(n_);
  // x allocation: the experiment's knob (Table 2's inv-I vs inv-II).
  if (cfg_.separate_x_blocks) {
    x_base_ = alloc_.alloc_blocks(n_);
  } else {
    x_base_ = alloc_.alloc_words(n_);
  }
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, n_);

  for (std::uint32_t i = 0; i < n_; ++i) {
    for (std::uint32_t j = 0; j < n_; ++j) {
      machine.poke_memory(a_base_ + static_cast<Addr>(i) * n_ + j,
                          pack(a_[static_cast<std::size_t>(i) * n_ + j]));
    }
    machine.poke_memory(b_base_ + i, pack(b_[i]));
    machine.poke_memory(x_addr(i), pack(0.0));
  }
}

Addr LinearSolverWorkload::x_addr(std::uint32_t i) const {
  return cfg_.separate_x_blocks ? x_base_ + static_cast<Addr>(i) * alloc_.block_words()
                                : x_base_ + i;
}

sim::Task LinearSolverWorkload::run(Processor& p) {
  const std::uint32_t i = p.id();
  for (std::uint32_t k = 0; k < cfg_.iterations; ++k) {
    // Phase 1: read the x^(k) snapshot and compute. The read of each x_j
    // is the interesting shared access (READ-UPDATE on the paper's
    // machine: after the first iteration the values are pushed to us and
    // these become cache hits — Table 2's "read" row).
    double acc = 0.0;
    for (std::uint32_t j = 0; j < n_; ++j) {
      if (j == i) continue;
      const double aij =
          unpack(co_await p.read(a_base_ + static_cast<Addr>(i) * n_ + j));
      const double xj = unpack(co_await shared_read(p, x_addr(j)));
      acc += aij * xj;
      co_await p.compute(2);  // multiply-accumulate
    }
    const double bi = unpack(co_await p.read(b_base_ + i));
    const double aii =
        unpack(co_await p.read(a_base_ + static_cast<Addr>(i) * n_ + i));
    const double xi = (bi - acc) / aii;
    co_await p.compute(8);  // division
    // Barrier: everyone has read the snapshot before anyone overwrites it
    // (keeps the parallel computation bit-identical to the host Jacobi).
    co_await barrier_->wait(p);
    // Phase 2: publish x_i^(k+1) (Table 2's "write" row).
    co_await shared_write(p, x_addr(i), pack(xi));
    co_await barrier_->wait(p);
  }
}

void LinearSolverWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    machine.spawn(run(machine.processor(i)));
  }
}

std::vector<double> LinearSolverWorkload::solution(const Machine& machine) const {
  std::vector<double> x(n_);
  for (std::uint32_t i = 0; i < n_; ++i) x[i] = unpack(machine.peek_coherent(x_addr(i)));
  return x;
}

std::vector<double> LinearSolverWorkload::reference() const {
  std::vector<double> x(n_, 0.0), nx(n_);
  for (std::uint32_t k = 0; k < cfg_.iterations; ++k) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (std::uint32_t j = 0; j < n_; ++j) {
        if (j != i) acc += a_[static_cast<std::size_t>(i) * n_ + j] * x[j];
      }
      nx[i] = (b_[i] - acc) / a_[static_cast<std::size_t>(i) * n_ + i];
    }
    x = nx;
  }
  return x;
}

double LinearSolverWorkload::residual(const Machine& machine) const {
  const auto x = solution(machine);
  double worst = 0.0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    double ax = 0.0;
    for (std::uint32_t j = 0; j < n_; ++j) {
      ax += a_[static_cast<std::size_t>(i) * n_ + j] * x[j];
    }
    worst = std::max(worst, std::abs(ax - b_[i]));
  }
  return worst;
}

}  // namespace bcsim::workload
