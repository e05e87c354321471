// Global operator new/delete replacements that count heap allocations,
// so the traced runner can report allocations per unit of work from
// outside the library. Linked into pb_trace only.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* countedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0))) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace pb {
std::uint64_t allocCount() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace pb

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
