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

  EXPECT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Erase(42));
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(43), 8);
  EXPECT_EQ(map.size(), 1u);
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
    const uint64_t key = rng.NextU64() % 257;  // force collisions + reuse
    const double which = rng.Uniform();
    if (which < 0.5) {
      const uint32_t value = static_cast<uint32_t>(rng.NextU64());
      flat.At(key) = value;
      ref[key] = value;
    } else if (which < 0.8) {
      const uint32_t* found = flat.Find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(flat.Erase(key), ref.erase(key) > 0) << "op " << op;
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

TEST(FlatHashMap64Test, ResetReusesSlab) {
  FlatHashMap64<int> map;
  EXPECT_FALSE(map.Reset(100));  // first sizing allocates
  for (uint64_t k = 0; k < 100; ++k) map.At(k) = 1;
  EXPECT_TRUE(map.Reset(100));  // same size: slab reused
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_TRUE(map.Reset(10));   // smaller: still reused
  EXPECT_FALSE(map.Reset(100000));  // bigger: must grow
}

}  // namespace
}  // namespace hunter::common
