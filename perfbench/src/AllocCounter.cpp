//===- AllocCounter.cpp - Counting operator new ---------------------------===//
//
// Replaces the global allocation functions of the benchmark binary so the
// traced run can report alloc.count and alloc.bytes. Counting is off (one
// relaxed load per allocation) except during traced passes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> Armed{false};
std::atomic<uint64_t> Count{0};
std::atomic<uint64_t> Bytes{0};

void *allocate(std::size_t Size) {
  if (Armed.load(std::memory_order_relaxed)) {
    Count.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(Size, std::memory_order_relaxed);
  }
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void pb::armAllocCounting(bool On) {
  Armed.store(On, std::memory_order_relaxed);
}

pb::AllocTotals pb::allocTotals() {
  return {Count.load(std::memory_order_relaxed),
          Bytes.load(std::memory_order_relaxed)};
}

void *operator new(std::size_t Size) { return allocate(Size); }
void *operator new[](std::size_t Size) { return allocate(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
