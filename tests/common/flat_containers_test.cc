#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_hash.h"
#include "common/rng.h"

namespace hunter::common {
namespace {

TEST(FlatHashMap64Test, InsertFindErase) {
  FlatHashMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);

  map.At(42) = 7;
  map.At(43) = 8;
  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 7);
  EXPECT_EQ(*map.Find(43), 8);
  EXPECT_EQ(map.size(), 2u);

  // Reset is the only erase: it removes every entry at once.
  map.Reset(2);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_EQ(map.Find(43), nullptr);
}

TEST(FlatHashMap64Test, AtDefaultInsertsAndIsStableAcrossGrowth) {
  FlatHashMap64<uint64_t> map;
  for (uint64_t k = 0; k < 1000; ++k) map.At(k) = k * 3;
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k * 3);
  }
  EXPECT_EQ(map.Find(1000), nullptr);
}

TEST(FlatHashMap64Test, MatchesStdMapUnderRandomOps) {
  FlatHashMap64<uint32_t> flat;
  std::map<uint64_t, uint32_t> ref;
  Rng rng(0xF1A7);
  for (int op = 0; op < 20000; ++op) {
    // 257 keys over a table that starts at 8 slots: collisions, growth,
    // and overwrites of existing keys.
    const uint64_t key = rng.NextU64() % 257;
    if (rng.Uniform() < 0.5) {
      const uint32_t value = static_cast<uint32_t>(rng.NextU64());
      flat.At(key) = value;
      ref[key] = value;
    } else {
      const uint32_t* found = flat.Find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

TEST(FlatHashMap64Test, ResetReusesSlab) {
  FlatHashMap64<int> map;
  map.Reset(100);
  for (uint64_t k = 0; k < 100; ++k) map.At(k) = 1;
  map.Reset(100);  // same size: the slab is reused, the entries are gone
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  map.At(5) = 2;
  map.Reset(10);  // smaller: still reused
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  map.Reset(100000);  // bigger: grows
  EXPECT_TRUE(map.empty());
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(map.Find(k), nullptr) << k;
}

}  // namespace
}  // namespace hunter::common
