#include "cache/cache.hpp"

#include <stdexcept>

namespace bcsim::cache {

Cache::Cache(std::uint32_t blocks, std::uint32_t assoc) : assoc_(assoc) {
  if (assoc == 0 || blocks == 0 || blocks % assoc != 0) {
    throw std::invalid_argument("Cache: blocks must be a positive multiple of assoc");
  }
  const std::uint32_t n_sets = blocks / assoc;
  if ((n_sets & (n_sets - 1)) != 0) {
    throw std::invalid_argument("Cache: blocks / assoc must be a power of two");
  }
  set_mask_ = n_sets - 1;
  sets_.resize(n_sets);
}

CacheLine* Cache::pick_victim(BlockId b) {
  auto& slot = sets_[set_of(b)];
  if (slot == nullptr) slot = std::make_unique<CacheLine[]>(assoc_);
  CacheLine* best = nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& line = slot[w];
    if (!line.valid) return &line;
    if (line.pinned || line.lock_active()) continue;
    if (best == nullptr || line.last_use < best->last_use) best = &line;
  }
  return best;
}

}  // namespace bcsim::cache
