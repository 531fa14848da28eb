#include "sim/block_pool.hpp"

#include <array>
#include <new>

namespace bcsim::sim {

namespace {

constexpr std::size_t kGrain = 64;
constexpr std::size_t kClasses = kMaxPooledBytes / kGrain;

/// Free blocks are threaded through their own first word.
struct FreeBlock {
  FreeBlock* next;
};

struct FreeLists {
  std::array<FreeBlock*, kClasses> head{};
  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists();
};

/// Set once this thread's lists are destroyed: a block released later (a
/// thread_local or static object torn down after them) is freed directly.
thread_local bool t_lists_gone = false;
thread_local FreeLists t_lists;

FreeLists::~FreeLists() {
  for (FreeBlock*& h : head) {
    while (h != nullptr) {
      FreeBlock* b = h;
      h = b->next;
      ::operator delete(b);
    }
  }
  t_lists_gone = true;
}

/// Size class of a request of 1..kMaxPooledBytes bytes.
[[nodiscard]] std::size_t class_of(std::size_t bytes) noexcept {
  return (bytes + kGrain - 1) / kGrain - 1;
}

}  // namespace

void* pool_allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes || t_lists_gone) return ::operator new(bytes);
  const std::size_t c = class_of(bytes);
  FreeBlock*& h = t_lists.head[c];
  if (h == nullptr) return ::operator new((c + 1) * kGrain);
  FreeBlock* b = h;
  h = b->next;
  return b;
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes || t_lists_gone) {
    ::operator delete(p);
    return;
  }
  FreeBlock*& h = t_lists.head[class_of(bytes)];
  h = ::new (p) FreeBlock{h};
}

}  // namespace bcsim::sim
