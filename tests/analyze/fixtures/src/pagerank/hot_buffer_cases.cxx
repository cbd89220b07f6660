// dprank_analyze fixture: unaligned-hot-buffer. A hot-path file that
// includes the fold kernel holds the arrays its lane gathers stream
// through; a raw std::vector<double> gets the allocator's default
// alignment and splits cache lines under the 4-lane gather.

#include <cstdint>
#include <vector>

#include "common/simd.hpp"

namespace fx {

template <typename T>
struct AlignedAllocator;  // stands in for common/arena.hpp
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

// FINDING unaligned-hot-buffer: the kernel gathers from this array.
struct GatherCells {
  std::vector<double> cells_;
};

// ok: 64-byte-aligned cells; an index array is not a gathered buffer.
struct AlignedCells {
  AlignedVec<double> cells_;
  std::vector<std::uint32_t> order_;
};

// ok (waivered): per-document scalar state the kernel never streams.
struct ScalarState {
  // dprank-analyze: allow(unaligned-hot-buffer) -- fixture waiver case
  std::vector<double> residual_;
};

}  // namespace fx
