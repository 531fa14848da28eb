#include "workload/fft_phases.hpp"

#include <bit>

#include "sim/random.hpp"
#include "workload/access.hpp"

namespace bcsim::workload {

using core::Machine;
using core::Processor;

FftPhasesWorkload::FftPhasesWorkload(Machine& machine, FftPhasesConfig cfg)
    : cfg_(cfg), alloc_(machine.make_allocator()) {
  n_ = std::bit_floor(machine.n_nodes());
  phases_ = static_cast<std::uint32_t>(std::bit_width(n_) - 1);
  const std::uint32_t bw = machine.config().block_words;
  const std::uint64_t blocks_per_region = (cfg_.words_per_region + bw - 1) / bw;
  base_ = alloc_.alloc_blocks(static_cast<std::uint64_t>(n_) * blocks_per_region);

  sim::Rng rng(cfg_.data_seed);
  init_.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    init_[i].resize(cfg_.words_per_region);
    for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
      init_[i][w] = rng.next_below(1u << 20);
      machine.poke_memory(region_addr(i, w), init_[i][w]);
    }
  }
  barrier_ = sync::make_barrier(machine.config().barrier_impl, alloc_, n_);
}

Addr FftPhasesWorkload::region_addr(std::uint32_t owner, std::uint32_t w) const {
  const std::uint32_t bw = alloc_.block_words();
  const std::uint64_t blocks_per_region = (cfg_.words_per_region + bw - 1) / bw;
  return base_ + static_cast<Addr>(owner) * blocks_per_region * bw + w;
}

sim::Task FftPhasesWorkload::run(Processor& p) {
  const std::uint32_t i = p.id();
  std::vector<Word> mine(cfg_.words_per_region);
  for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
    mine[w] = co_await p.read(region_addr(i, w));
  }
  for (std::uint32_t s = 0; s < phases_; ++s) {
    const std::uint32_t partner = i ^ (1u << s);
    // Subscribe to the partner's region for this phase only.
    std::vector<Word> theirs(cfg_.words_per_region);
    for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
      theirs[w] = co_await shared_read(p, region_addr(partner, w));
      co_await p.compute(1);
    }
    // Snapshot barrier: everyone has read phase-s inputs before anyone
    // publishes phase-(s+1) values.
    co_await barrier_->wait(p);
    for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
      mine[w] += theirs[w];
      co_await shared_write(p, region_addr(i, w), mine[w]);
    }
    // Done with this partner's region: cancel the subscription so later
    // phases' updates to it are not pushed to us (paper's RESET-UPDATE
    // usage note).
    if (p.config().data_protocol == core::DataProtocol::kReadUpdate) {
      for (std::uint32_t w = 0; w < cfg_.words_per_region;
           w += p.config().block_words) {
        co_await p.reset_update(region_addr(partner, w));
      }
    }
    co_await barrier_->wait(p);
  }
}

void FftPhasesWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < n_; ++i) {
    machine.spawn(run(machine.processor(i)));
  }
}

std::vector<std::vector<Word>> FftPhasesWorkload::expected() const {
  std::vector<std::vector<Word>> cur = init_;
  for (std::uint32_t s = 0; s < phases_; ++s) {
    std::vector<std::vector<Word>> next = cur;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::uint32_t partner = i ^ (1u << s);
      for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
        next[i][w] = cur[i][w] + cur[partner][w];
      }
    }
    cur = std::move(next);
  }
  return cur;
}

std::vector<std::vector<Word>> FftPhasesWorkload::actual(const Machine& machine) const {
  std::vector<std::vector<Word>> out(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    out[i].resize(cfg_.words_per_region);
    for (std::uint32_t w = 0; w < cfg_.words_per_region; ++w) {
      out[i][w] = machine.peek_coherent(region_addr(i, w));
    }
  }
  return out;
}

}  // namespace bcsim::workload
