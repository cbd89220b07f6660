// Pool/arena primitive tests (common/arena.hpp): BufferPool capacity
// retention and reuse accounting, and the ASan reuse-after-recycle trap.

#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace dprank {
namespace {

TEST(BufferPool, FirstAcquireAllocates) {
  BufferPool<int> pool;
  auto buf = pool.acquire();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, ReleaseThenAcquireReusesCapacity) {
  BufferPool<int> pool;
  auto buf = pool.acquire();
  buf.resize(1000);
  const auto cap = buf.capacity();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.idle(), 1u);

  auto again = pool.acquire();
  EXPECT_TRUE(again.empty());  // cleared...
  EXPECT_GE(again.capacity(), cap);  // ...but capacity survived
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, LifoHandsBackMostRecentBuffer) {
  BufferPool<int> pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  a.reserve(10);
  b.reserve(2000);
  const int* b_data = b.data();
  pool.release(std::move(a));
  pool.release(std::move(b));
  auto top = pool.acquire();
  EXPECT_EQ(top.data(), b_data);  // most recently released comes back first
  EXPECT_GE(top.capacity(), 2000u);
}

TEST(BufferPool, ManyCyclesStayAtOneAllocation) {
  BufferPool<std::uint64_t> pool;
  for (int pass = 0; pass < 100; ++pass) {
    auto buf = pool.acquire();
    for (std::uint64_t i = 0; i < 256; ++i) buf.push_back(i);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 99u);
}

#if DPRANK_HAS_ASAN
TEST(BufferPool, ReleasedStorageIsPoisonedUntilReacquired) {
  // The lifetime contract from the header: a released buffer's storage
  // is dead, and under ASan a stale pointer into it must trap. We probe
  // with __asan_address_is_poisoned instead of dereferencing, so the
  // test asserts the trap is armed rather than crashing the runner.
  BufferPool<int> pool;
  auto buf = pool.acquire();
  buf.resize(64, 7);
  const int* stale = buf.data();
  pool.release(std::move(buf));
  EXPECT_TRUE(__asan_address_is_poisoned(stale));
  EXPECT_TRUE(__asan_address_is_poisoned(stale + 63));

  auto again = pool.acquire();
  ASSERT_EQ(again.data(), stale);  // same storage, now unpoisoned
  EXPECT_FALSE(__asan_address_is_poisoned(stale));
  again.resize(64);
  EXPECT_EQ(again[0], 0);  // and safely readable again
  pool.release(std::move(again));
}
#endif

}  // namespace
}  // namespace dprank
