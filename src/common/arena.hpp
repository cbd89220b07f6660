#pragma once

// AlignedAllocator<T> / AlignedVec<T>: 64-byte-aligned vector storage for
// the engine's hot arrays (contribution cells, pass scratch), so the
// vectorized gather kernel (common/simd.hpp) never straddles a cache line
// at a block boundary and streaming sweeps start aligned.

#include <cstddef>
#include <new>
#include <vector>

namespace dprank {

/// Minimal std::allocator drop-in returning storage aligned to kAlign
/// bytes (default: one cache line). The gather kernel's hot arrays use
/// AlignedVec so vector loads never split lines at block boundaries; the
/// alignment is a performance contract only — element layout and vector
/// semantics are unchanged.
template <typename T, std::size_t kAlign = 64>
struct AlignedAllocator {
  static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) noexcept {}  // NOLINT
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kAlign});
  }
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// 64-byte-aligned vector: the engine's contribution cells and pass
/// scratch live here (see common/simd.hpp and dprank_analyze's
/// unaligned-hot-buffer rule).
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace dprank
