#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t t_allocs = 0;
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void Count() {
  ++t_allocs;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) noexcept {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) noexcept {
  Count();
  void* p = nullptr;
  const std::size_t alignment =
      static_cast<std::size_t>(align) < sizeof(void*)
          ? sizeof(void*)
          : static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

void* AllocateOrThrow(std::size_t size) {
  void* p = Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAlignedOrThrow(std::size_t size, std::align_val_t align) {
  void* p = AllocateAligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

uint64_t ThreadAllocs() { return t_allocs; }

void SetProcessAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_seq_cst);
}

uint64_t ProcessAllocs() { return g_allocs.load(std::memory_order_seq_cst); }

}  // namespace perfbench

void* operator new(std::size_t size) { return AllocateOrThrow(size); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAlignedOrThrow(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAlignedOrThrow(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
