#pragma once

// Allocation-recycling and alignment primitives for the per-pass message
// path. A scratch vector allocated, filled, moved away and dropped every
// pass costs an allocation per pass; these helpers keep that memory alive
// across passes and aligned for the fold kernel:
//
//   * BufferPool<T>: a free list of std::vector<T> buffers. acquire()
//     hands back a cleared buffer with its old capacity intact; release()
//     returns it. Under AddressSanitizer a released buffer's storage is
//     poisoned until re-acquired, so a stale pointer into recycled memory
//     traps instead of silently reading the next user's data.
//   * AlignedAllocator<T> / AlignedVec<T>: 64-byte-aligned vector storage
//     for the engine's hot arrays (contribution cells, pass scratch), so
//     the vectorized gather kernel (common/simd.hpp) never straddles a
//     cache line at a block boundary and streaming sweeps start aligned.
//
// Lifetime rules (DESIGN.md §9): pooled buffers belong to exactly one
// owner between acquire() and release(); releasing twice or using after
// release is a bug the ASan poisoning is designed to catch. Pools are not
// thread-safe — each thread (or each single-threaded phase) owns its own.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DPRANK_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DPRANK_HAS_ASAN 1
#endif
#endif
#ifndef DPRANK_HAS_ASAN
#define DPRANK_HAS_ASAN 0
#endif

#if DPRANK_HAS_ASAN
#include <sanitizer/asan_interface.h>
#endif

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

/// Free list of reusable std::vector<T> buffers (see the header comment).
/// T must be trivially destructible: a parked buffer's storage is poisoned
/// wholesale under ASan, which assumes no live objects inside it.
template <typename T>
class BufferPool {
  static_assert(std::is_trivially_destructible_v<T>,
                "BufferPool poisons parked storage; non-trivial element "
                "types would need destruction first");

 public:
  /// A cleared buffer, reusing the capacity of the most recently released
  /// one when the pool is non-empty.
  [[nodiscard]] std::vector<T> acquire() {
    if (free_.empty()) {
      ++allocs_;
      return {};
    }
    std::vector<T> buf = std::move(free_.back());
    free_.pop_back();
    unpoison(buf);
    buf.clear();
    ++reuses_;
    return buf;
  }

  /// Hand a buffer back. The contents are dead from this point on; under
  /// ASan any stale reference into the buffer's storage now traps.
  void release(std::vector<T>&& buf) {
    buf.clear();
    poison(buf);
    free_.push_back(std::move(buf));
  }

  /// Buffers handed out fresh (pool was empty) vs recycled — the
  /// net.pool_reuse telemetry series reads these.
  [[nodiscard]] std::uint64_t allocations() const { return allocs_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  [[nodiscard]] std::size_t idle() const { return free_.size(); }

 private:
  static void poison(std::vector<T>& buf) {
#if DPRANK_HAS_ASAN
    if (buf.capacity() != 0) {
      __asan_poison_memory_region(buf.data(), buf.capacity() * sizeof(T));
    }
#else
    (void)buf;
#endif
  }
  static void unpoison(std::vector<T>& buf) {
#if DPRANK_HAS_ASAN
    if (buf.capacity() != 0) {
      __asan_unpoison_memory_region(buf.data(), buf.capacity() * sizeof(T));
    }
#else
    (void)buf;
#endif
  }

  std::vector<std::vector<T>> free_;
  std::uint64_t allocs_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace dprank
