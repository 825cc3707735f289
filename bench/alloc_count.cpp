// Replacement global allocation functions for the mcs_bench binary only:
// every `operator new` call bumps a counter, so a bench can report how
// many heap allocations a pass makes (`mcs_bench analysis` writes the
// counts to BENCH_analysis.json).  Storage comes from malloc/free, as with
// the library's own operators; the counter is atomic, since the sweeps
// allocate from several threads.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t size) {
  ++g_allocations;
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

std::uint64_t mcs::bench::allocation_count() {
  return g_allocations.load();
}

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
