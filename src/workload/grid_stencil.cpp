#include "workload/grid_stencil.hpp"

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

GridStencilWorkload::GridStencilWorkload(Machine& machine, GridStencilConfig cfg)
    : cfg_(cfg), n_(machine.n_nodes()), alloc_(machine.make_allocator()) {
  // Exact factorization (pcols_ * prows_ == n_): the most square divisor
  // pair; prime counts degrade to 1 x n strips. Every cell has an owner.
  prows_ = 1;
  for (std::uint32_t d = 1; d * d <= n_; ++d) {
    if (n_ % d == 0) prows_ = d;
  }
  pcols_ = n_ / prows_;
  base_ = alloc_.alloc_words(static_cast<std::uint64_t>(cfg_.grid) * cfg_.grid);
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, n_);
  sim::Rng rng(cfg_.data_seed);
  init_.resize(static_cast<std::size_t>(cfg_.grid) * cfg_.grid);
  for (std::uint32_t y = 0; y < cfg_.grid; ++y) {
    for (std::uint32_t x = 0; x < cfg_.grid; ++x) {
      const double v = rng.next_double() * 8.0;
      init_[static_cast<std::size_t>(y) * cfg_.grid + x] = v;
      machine.poke_memory(cell_addr(x, y), pack(v));
    }
  }
}

GridStencilWorkload::Tile GridStencilWorkload::tile_of(NodeId p) const {
  const std::uint32_t px = p % pcols_;
  const std::uint32_t py = p / pcols_;
  Tile t;
  t.x0 = px * cfg_.grid / pcols_;
  t.x1 = (px + 1) * cfg_.grid / pcols_;
  t.y0 = py * cfg_.grid / prows_;
  t.y1 = (py + 1) * cfg_.grid / prows_;
  return t;
}

sim::Task GridStencilWorkload::run(Processor& p) {
  const Tile t = tile_of(p.id());
  const std::uint32_t tw = t.x1 > t.x0 ? t.x1 - t.x0 : 0;
  const std::uint32_t th = t.y1 > t.y0 ? t.y1 - t.y0 : 0;
  std::vector<double> mine(static_cast<std::size_t>(tw) * th);
  auto mref = [&](std::uint32_t x, std::uint32_t y) -> double& {
    return mine[static_cast<std::size_t>(y - t.y0) * tw + (x - t.x0)];
  };
  auto in_tile = [&](std::uint32_t x, std::uint32_t y) {
    return x >= t.x0 && x < t.x1 && y >= t.y0 && y < t.y1;
  };
  for (std::uint32_t y = t.y0; y < t.y1; ++y) {
    for (std::uint32_t x = t.x0; x < t.x1; ++x) {
      mref(x, y) = unpack(co_await p.read(cell_addr(x, y)));
    }
  }
  for (std::uint32_t sweep = 0; sweep < cfg_.sweeps; ++sweep) {
    for (std::uint32_t color = 0; color < 2; ++color) {
      for (std::uint32_t y = t.y0; y < t.y1; ++y) {
        for (std::uint32_t x = t.x0; x < t.x1; ++x) {
          if ((x + y) % 2 != color) continue;
          if (x == 0 || y == 0 || x + 1 == cfg_.grid || y + 1 == cfg_.grid) {
            continue;  // fixed boundary
          }
          // Four neighbors (the other color: stable during this half-sweep).
          double nb[4];
          const std::uint32_t nx[4] = {x - 1, x + 1, x, x};
          const std::uint32_t ny[4] = {y, y, y - 1, y + 1};
          for (int k = 0; k < 4; ++k) {
            if (in_tile(nx[k], ny[k])) {
              nb[k] = mref(nx[k], ny[k]);
            } else {
              nb[k] = unpack(co_await shared_read(p, cell_addr(nx[k], ny[k])));
            }
          }
          const double v = 0.25 * (nb[0] + nb[1] + nb[2] + nb[3]);
          mref(x, y) = v;
          co_await p.compute(5);
          if (tile_edge(t, x, y)) {
            co_await shared_write(p, cell_addr(x, y), pack(v));
          } else {
            co_await p.write(cell_addr(x, y), pack(v));
          }
        }
      }
      co_await barrier_->wait(p);  // CP-Synch: publish halos before next color
    }
  }
  // Final publish so result() sees everything at memory.
  for (std::uint32_t y = t.y0; y < t.y1; ++y) {
    for (std::uint32_t x = t.x0; x < t.x1; ++x) {
      co_await shared_write(p, cell_addr(x, y), pack(mref(x, y)));
    }
  }
  co_await p.flush_buffer();
  co_await barrier_->wait(p);
}

void GridStencilWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < n_; ++i) machine.spawn(run(machine.processor(i)));
}

std::vector<double> GridStencilWorkload::reference() const {
  std::vector<double> g = init_;
  const std::uint32_t G = cfg_.grid;
  for (std::uint32_t sweep = 0; sweep < cfg_.sweeps; ++sweep) {
    for (std::uint32_t color = 0; color < 2; ++color) {
      for (std::uint32_t y = 1; y + 1 < G; ++y) {
        for (std::uint32_t x = 1; x + 1 < G; ++x) {
          if ((x + y) % 2 != color) continue;
          g[static_cast<std::size_t>(y) * G + x] =
              0.25 * (g[static_cast<std::size_t>(y) * G + x - 1] +
                      g[static_cast<std::size_t>(y) * G + x + 1] +
                      g[static_cast<std::size_t>(y - 1) * G + x] +
                      g[static_cast<std::size_t>(y + 1) * G + x]);
        }
      }
    }
  }
  return g;
}

std::vector<double> GridStencilWorkload::result(const Machine& machine) const {
  std::vector<double> g(static_cast<std::size_t>(cfg_.grid) * cfg_.grid);
  for (std::uint32_t y = 0; y < cfg_.grid; ++y) {
    for (std::uint32_t x = 0; x < cfg_.grid; ++x) {
      g[static_cast<std::size_t>(y) * cfg_.grid + x] =
          unpack(machine.peek_coherent(cell_addr(x, y)));
    }
  }
  return g;
}

}  // namespace bcsim::workload
