// FlatMap64 unit tests: the open-addressing map under the messaging hot
// path (ReliableChannel edge records). Checked against
// std::unordered_map as the reference model, plus the tombstone and
// rehash behaviors a node-based map never exercises.

#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace dprank {
namespace {

TEST(FlatMap64, EmptyBasics) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_FALSE(m.erase(42));
}

TEST(FlatMap64, InsertFindErase) {
  FlatMap64<int> m;
  m[5] = 50;
  m[6] = 60;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ((*m.find(5)), 50);
  m[5] = 55;  // overwrite, not a second entry
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ((*m.find(5)), 55);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.contains(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64, TryEmplaceReportsInsertion) {
  FlatMap64<int> m;
  auto [slot1, inserted1] = m.try_emplace(9);
  EXPECT_TRUE(inserted1);
  slot1->second = 90;
  auto [slot2, inserted2] = m.try_emplace(9);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(slot2->second, 90);
}

TEST(FlatMap64, ZeroAndMaxKeys) {
  // No reserved sentinel keys: 0 and ~0 are ordinary.
  FlatMap64<int> m;
  m[0] = 1;
  m[~0ULL] = 2;
  EXPECT_EQ((*m.find(0)), 1);
  EXPECT_EQ((*m.find(~0ULL)), 2);
  EXPECT_TRUE(m.erase(0));
  EXPECT_EQ((*m.find(~0ULL)), 2);
}

TEST(FlatMap64, GrowthKeepsEveryEntry) {
  FlatMap64<std::uint64_t> m;
  for (std::uint64_t k = 0; k < 10'000; ++k) m[k * 7919] = k;
  EXPECT_EQ(m.size(), 10'000u);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_NE(m.find(k * 7919), nullptr) << k;
    EXPECT_EQ((*m.find(k * 7919)), k);
  }
}

TEST(FlatMap64, TombstoneChurnDoesNotDegrade) {
  // Insert/erase cycles at constant live size: the in-place rehash must
  // reclaim tombstones instead of growing forever. 64 live keys cycled
  // 10k times stay findable throughout.
  FlatMap64<std::uint64_t> m;
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = k;
  for (std::uint64_t round = 0; round < 10'000; ++round) {
    EXPECT_TRUE(m.erase(round));          // oldest live key
    m[64 + round] = 64 + round;           // keep the window at 64 keys
    ASSERT_EQ(m.size(), 64u);
  }
  for (std::uint64_t k = 10'000; k < 10'064; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ((*m.find(k)), k);
  }
}

TEST(FlatMap64, MatchesUnorderedMapUnderRandomOps) {
  FlatMap64<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(2026);
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t key = rng.bounded(512);  // force collisions
    switch (rng.bounded(3)) {
      case 0: {
        const std::uint64_t value = rng();
        m[key] = value;
        ref[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(m.erase(key), ref.erase(key) != 0);
        break;
      }
      default: {
        const auto* slot = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(slot != nullptr, it != ref.end()) << key;
        if (slot != nullptr) EXPECT_EQ(*slot, it->second);
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

TEST(FlatMap64, ForEachVisitsExactlyLiveEntries) {
  FlatMap64<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = 1;
  for (std::uint64_t k = 0; k < 100; k += 2) m.erase(k);
  std::vector<std::uint64_t> seen;
  m.for_each([&](std::uint64_t key, int& value) {
    seen.push_back(key);
    EXPECT_EQ(value, 1);
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 50u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 2 * i + 1);
  }
}

TEST(FlatMap64, EraseIf) {
  FlatMap64<std::uint64_t> m;
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = k;
  m.erase_if([](std::uint64_t key, std::uint64_t&) { return key % 3 == 0; });
  EXPECT_EQ(m.size(), 666u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.contains(k), k % 3 != 0) << k;
  }
}

TEST(FlatMap64, ClearAndReuse) {
  FlatMap64<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(10), nullptr);
  m[10] = 2;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ((*m.find(10)), 2);
}

TEST(FlatMap64, ReserveAvoidsIntermediateState) {
  FlatMap64<int> m;
  m.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = static_cast<int>(k);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(m.contains(k)) << k;
  }
}

}  // namespace
}  // namespace dprank
