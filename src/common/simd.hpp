#pragma once

// Portable SIMD wrapper for the in-CSR gather fold (ROADMAP item 4).
// The distributed engine does not call it: a scalar loop over each slot's
// cells measured faster there. The kernel stays as the gather probe that
// bench_scale and perfbench's traced run time.
//
// The only loop worth vectorizing in this codebase is also the one whose
// floating-point result is pinned bit-for-bit by the fifo golden digests:
// the in-CSR contribution fold
//     acc(v) = contrib[begin_v] + contrib[begin_v+1] + ... (left-to-right)
// The per-document summation order is the FP anchor — IEEE addition does
// not reassociate, so a tree reduction over one document's cells would
// change ranks (and break every golden digest). The vector kernel
// therefore assigns one *document per lane*: four documents fold
// concurrently, each lane accumulating its own cells strictly
// left-to-right, exactly the scalar order. Lane addition is element-wise
// IEEE-754, so every lane reproduces the scalar fold bit for bit.
//
// Web graphs are power-law: a fixed block of four documents would stall
// three short lanes behind one long one. The AVX2 kernel instead *refills*
// — the moment a lane's document runs out of cells, its accumulator is
// retired and the lane reloads with the next document, so all four lanes
// stay busy regardless of degree skew, and the common case (every lane
// mid-document) is a single unmasked gather + add per four cells. The
// kernel test in tests/test_layout_equivalence.cpp asserts bitwise
// identity with the scalar fold, and DPRANK_SIMD=scalar forces the
// fallback at runtime.
//
// Level selection: compile-time availability (x86-64 + GCC/Clang target
// attributes) gated by a runtime CPUID check, overridable with the
// DPRANK_SIMD environment variable ("scalar", "avx2", "auto") and by
// tests via force_level_for_test(). Non-x86 builds compile the scalar
// path only.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPRANK_SIMD_X86 1
#include <immintrin.h>
#else
#define DPRANK_SIMD_X86 0
#endif

namespace dprank::simd {

enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// The level the current process uses: min(compiled support, CPU
/// support, DPRANK_SIMD override). Cached after the first call.
[[nodiscard]] Level active_level();

/// Test hook: pin the level (kScalar to exercise the fallback on AVX2
/// hardware). Overrides environment and CPUID until reset_level_for_test.
void force_level_for_test(Level level);
void reset_level_for_test();

[[nodiscard]] const char* level_name(Level level);

/// Concurrent per-document folds in the vector kernel.
inline constexpr std::size_t kFoldLanes = 4;

/// Scalar reference: for each document docs[i], fold its cells
/// cells[offsets[docs[i]] .. offsets[docs[i]+1]) strictly left-to-right
/// into acc_out[i]. This is the exact fold order of the pre-vectorization
/// engine loop; the AVX2 kernel below must match it bit for bit.
inline void fold_cells_scalar(const double* cells,
                              const std::uint64_t* offsets,
                              const std::uint32_t* docs, std::size_t count,
                              double* acc_out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = docs[i];
    const std::uint64_t end = offsets[v + 1];
    double acc = 0.0;
    for (std::uint64_t c = offsets[v]; c < end; ++c) acc += cells[c];
    acc_out[i] = acc;
  }
}

#if DPRANK_SIMD_X86

/// AVX2 lane-per-document fold with refill. While all four lanes are
/// mid-document the loop is one unmasked 4-lane gather + add per
/// iteration; the moment any lane exhausts its cells, lane state spills
/// to the stack, finished accumulators retire to acc_out and their lanes
/// reload with the next documents. When no documents remain, in-flight
/// lanes finish scalar from their current cursor — still the same
/// left-to-right per-document order, so every acc_out entry is
/// bit-identical to fold_cells_scalar.
__attribute__((target("avx2"))) inline void fold_cells_avx2(
    const double* cells, const std::uint64_t* offsets,
    const std::uint32_t* docs, std::size_t count, double* acc_out) {
  if (count < kFoldLanes) {
    fold_cells_scalar(cells, offsets, docs, count, acc_out);
    return;
  }
  constexpr std::size_t kIdle = ~std::size_t{0};
  alignas(32) std::uint64_t idx_a[kFoldLanes];
  alignas(32) std::uint64_t end_a[kFoldLanes];
  alignas(32) double acc_a[kFoldLanes];
  std::size_t pos[kFoldLanes];  // acc_out slot each lane is folding
  std::size_t next = 0;
  for (std::size_t j = 0; j < kFoldLanes; ++j) {
    const std::uint32_t v = docs[next];
    idx_a[j] = offsets[v];
    end_a[j] = offsets[v + 1];
    acc_a[j] = 0.0;
    pos[j] = next++;
  }
  __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(idx_a));
  __m256i end = _mm256_load_si256(reinterpret_cast<const __m256i*>(end_a));
  __m256d acc = _mm256_setzero_pd();
  for (;;) {
    // Signed compare is safe: in-CSR positions are < 2^63 by a huge
    // margin (edge ids fit the graph's edge count).
    const __m256i active = _mm256_cmpgt_epi64(end, idx);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(active));
    if (mask == 0xF) {
      // Every lane mid-document: gather one cell per lane and advance
      // (active lanes hold -1, so subtracting increments the cursors).
      acc = _mm256_add_pd(acc, _mm256_i64gather_pd(cells, idx, 8));
      idx = _mm256_sub_epi64(idx, active);
      continue;
    }
    // Some lane finished its document: spill, retire, refill.
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx_a), idx);
    _mm256_store_si256(reinterpret_cast<__m256i*>(end_a), end);
    _mm256_store_pd(acc_a, acc);
    for (std::size_t j = 0; j < kFoldLanes; ++j) {
      if ((mask >> j) & 1) continue;  // still folding
      if (pos[j] != kIdle) acc_out[pos[j]] = acc_a[j];
      if (next < count) {
        const std::uint32_t v = docs[next];
        idx_a[j] = offsets[v];
        end_a[j] = offsets[v + 1];
        acc_a[j] = 0.0;
        pos[j] = next++;
      } else {
        idx_a[j] = 0;  // park: idx == end reads as inactive
        end_a[j] = 0;
        acc_a[j] = 0.0;
        pos[j] = kIdle;
      }
    }
    if (next == count) {
      // No fresh documents: finish the in-flight lanes scalar from their
      // current cursors (continuing the same left-to-right fold).
      for (std::size_t j = 0; j < kFoldLanes; ++j) {
        if (pos[j] == kIdle) continue;
        double a = acc_a[j];
        for (std::uint64_t c = idx_a[j]; c < end_a[j]; ++c) a += cells[c];
        acc_out[pos[j]] = a;
      }
      return;
    }
    idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(idx_a));
    end = _mm256_load_si256(reinterpret_cast<const __m256i*>(end_a));
    acc = _mm256_load_pd(acc_a);
  }
}

#endif  // DPRANK_SIMD_X86

/// Fold a run of documents at the given level. Callers hoist
/// active_level() out of their pass loop and pass it in, so the hot path
/// pays one predictable branch per segment, no indirect call.
inline void fold_cells(Level level, const double* cells,
                       const std::uint64_t* offsets,
                       const std::uint32_t* docs, std::size_t count,
                       double* acc_out) {
#if DPRANK_SIMD_X86
  if (level == Level::kAvx2) {
    fold_cells_avx2(cells, offsets, docs, count, acc_out);
    return;
  }
#else
  (void)level;
#endif
  fold_cells_scalar(cells, offsets, docs, count, acc_out);
}

}  // namespace dprank::simd
