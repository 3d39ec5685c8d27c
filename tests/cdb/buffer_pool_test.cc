#include "cdb/buffer_pool.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/cdb/seed_engine_ref.h"

namespace hunter::cdb {
namespace {

TEST(BufferPoolTest, ColdMissesThenHits) {
  BufferPool pool(10, 16);
  EXPECT_FALSE(pool.Access(1, false));
  EXPECT_TRUE(pool.Access(1, false));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2, 4);
  pool.Access(1, false);
  pool.Access(2, false);
  pool.Access(1, false);   // 1 now most recent
  pool.Access(3, false);   // evicts 2
  EXPECT_TRUE(pool.Access(1, false));
  EXPECT_FALSE(pool.Access(2, false));
}

TEST(BufferPoolTest, CapacityNeverExceeded) {
  BufferPool pool(5, 100);
  for (uint64_t p = 0; p < 100; ++p) pool.Access(p, false);
  EXPECT_EQ(pool.resident_pages(), 5u);
}

TEST(BufferPoolTest, DirtyTrackingAndFlush) {
  BufferPool pool(10, 16);
  pool.Access(1, true);
  pool.Access(2, true);
  pool.Access(3, false);
  EXPECT_EQ(pool.dirty_pages(), 2u);
  EXPECT_DOUBLE_EQ(pool.DirtyFraction(), 2.0 / 3.0);
  EXPECT_EQ(pool.FlushDirty(1), 1u);
  EXPECT_EQ(pool.dirty_pages(), 1u);
  EXPECT_EQ(pool.FlushDirty(10), 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, DirtyEvictionCounted) {
  BufferPool pool(1, 4);
  pool.Access(1, true);
  pool.Access(2, false);  // evicts dirty page 1
  EXPECT_EQ(pool.dirty_evictions(), 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, RewriteDoesNotDoubleCountDirty) {
  BufferPool pool(4, 4);
  pool.Access(1, true);
  pool.Access(1, true);
  EXPECT_EQ(pool.dirty_pages(), 1u);
}

TEST(BufferPoolTest, HitRatioGrowsWithCapacityUnderZipf) {
  common::Rng rng(1);
  auto measure = [&](uint64_t capacity) {
    BufferPool pool(capacity, 4096);
    common::Rng local(42);
    const common::ZipfTable zipf(4096, 0.8);
    for (int i = 0; i < 5000; ++i) pool.Access(zipf.Sample(&local), false);
    pool.ResetCounters();
    for (int i = 0; i < 5000; ++i) pool.Access(zipf.Sample(&local), false);
    return pool.HitRatio();
  };
  const double small = measure(64);
  const double medium = measure(512);
  const double large = measure(4096);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  EXPECT_GT(large, 0.80);  // most of the working set resident
  EXPECT_GT(small, 0.15);  // Zipf head still caught by a small pool
}

TEST(BufferPoolTest, PrewarmMakesHotPagesResident) {
  BufferPool pool(100, 200);
  pool.Prewarm(100);
  EXPECT_EQ(pool.resident_pages(), 100u);
  EXPECT_TRUE(pool.Access(0, false));
  EXPECT_TRUE(pool.Access(99, false));
  EXPECT_FALSE(pool.Access(100, false));
}

TEST(BufferPoolTest, PrewarmRespectsCapacity) {
  BufferPool pool(10, 100);
  pool.Prewarm(100);
  EXPECT_EQ(pool.resident_pages(), 10u);
}

TEST(BufferPoolTest, PrewarmRespectsPageSpace) {
  BufferPool pool(100, 40);
  pool.Prewarm(100);
  EXPECT_EQ(pool.resident_pages(), 40u);
  EXPECT_EQ(pool.capacity(), 100u);
  EXPECT_TRUE(pool.Access(39, false));
}

TEST(BufferPoolTest, PrewarmedPagesAgeInOrder) {
  // Page 0 is the warmest prewarmed page and the last one the coldest, so
  // live misses evict from the top of the prewarmed range downwards.
  BufferPool pool(4, 16);
  pool.Prewarm(4);
  EXPECT_FALSE(pool.Access(10, false));  // evicts 3
  EXPECT_FALSE(pool.Access(11, false));  // evicts 2
  EXPECT_TRUE(pool.Access(0, false));
  EXPECT_TRUE(pool.Access(1, false));
  EXPECT_FALSE(pool.Access(2, false));
  EXPECT_FALSE(pool.Access(3, false));
}

TEST(BufferPoolTest, ResetCountersKeepsContents) {
  BufferPool pool(4, 16);
  pool.Access(7, false);
  pool.ResetCounters();
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_TRUE(pool.Access(7, false));
}

TEST(BufferPoolTest, ZeroCapacityClampedToOne) {
  BufferPool pool(0, 16);
  EXPECT_EQ(pool.capacity(), 1u);
  pool.Access(1, false);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

// ---------------------------------------------------------------------------
// Golden equivalence against the seed std::list + std::unordered_map pool
// (tests/cdb/seed_engine_ref.h). The flat intrusive LRU must reproduce the
// seed's hit/miss booleans and counter trajectories exactly, access by
// access, under adversarial streams.
// ---------------------------------------------------------------------------

// Drives both pools through the same access/flush stream, asserting the
// per-access hit/miss boolean and all observable counters after every step.
void ReplayAndCompare(BufferPool* pool, seedref::SeedBufferPool* seed,
                      common::Rng* rng, uint64_t page_space, double dirty_prob,
                      int steps, uint64_t flush_every, uint64_t flush_budget,
                      const std::string& context) {
  const common::ZipfTable zipf(page_space, 0.9);
  for (int i = 0; i < steps; ++i) {
    const uint64_t page = zipf.Sample(rng);
    const bool dirty = rng->Bernoulli(dirty_prob);
    const bool want = seed->Access(page, dirty);
    const bool got = pool->Access(page, dirty);
    ASSERT_EQ(want, got) << context << " step " << i;
    if (flush_every > 0 && static_cast<uint64_t>(i) % flush_every == 0) {
      ASSERT_EQ(seed->FlushDirty(flush_budget), pool->FlushDirty(flush_budget))
          << context << " flush at step " << i;
    }
    ASSERT_EQ(seed->hits(), pool->hits()) << context << " step " << i;
    ASSERT_EQ(seed->misses(), pool->misses()) << context << " step " << i;
    ASSERT_EQ(seed->dirty_pages(), pool->dirty_pages())
        << context << " step " << i;
    ASSERT_EQ(seed->dirty_evictions(), pool->dirty_evictions())
        << context << " step " << i;
    ASSERT_EQ(seed->resident_pages(), pool->resident_pages())
        << context << " step " << i;
  }
  EXPECT_DOUBLE_EQ(seed->HitRatio(), pool->HitRatio()) << context;
  EXPECT_DOUBLE_EQ(seed->DirtyFraction(), pool->DirtyFraction()) << context;
}

// One access of `page` on both pools: same hit/miss answer and counters.
void CompareAccess(BufferPool* pool, seedref::SeedBufferPool* seed,
                   uint64_t page, bool dirty, const std::string& context) {
  ASSERT_EQ(seed->Access(page, dirty), pool->Access(page, dirty)) << context;
  ASSERT_EQ(seed->hits(), pool->hits()) << context;
  ASSERT_EQ(seed->misses(), pool->misses()) << context;
  ASSERT_EQ(seed->dirty_pages(), pool->dirty_pages()) << context;
  ASSERT_EQ(seed->dirty_evictions(), pool->dirty_evictions()) << context;
  ASSERT_EQ(seed->resident_pages(), pool->resident_pages()) << context;
}

TEST(BufferPoolEquivalenceTest, AdversarialStreamsMatchSeedExactly) {
  struct Scenario {
    const char* name;
    uint64_t capacity;
    uint64_t page_space;
    double dirty_prob;
    uint64_t flush_every;
    uint64_t flush_budget;
    uint64_t prewarm;
  };
  const Scenario scenarios[] = {
      // Thrashing single slot: every distinct page evicts.
      {"capacity one", 1, 64, 0.5, 0, 0, 0},
      // Pool larger than the page space: no evictions ever.
      {"oversized pool", 4096, 256, 0.3, 0, 0, 0},
      // The engine's shape: prewarmed pool, periodic budgeted flushing.
      {"prewarmed with flushing", 512, 2048, 0.4, 256, 8, 512},
      // Tight pool with aggressive flush interleaving.
      {"flush every step", 16, 128, 0.9, 1, 2, 16},
      // Prewarm beyond capacity (clamped inside Prewarm).
      {"prewarm overflow", 32, 1024, 0.2, 64, 4, 1000},
  };
  for (const Scenario& s : scenarios) {
    BufferPool pool(s.capacity, s.page_space);
    seedref::SeedBufferPool seed(s.capacity);
    if (s.prewarm > 0) {
      pool.Prewarm(s.prewarm);
      seed.Prewarm(s.prewarm);
    }
    common::Rng rng(1234);
    ReplayAndCompare(&pool, &seed, &rng, s.page_space, s.dirty_prob, 4000,
                     s.flush_every, s.flush_budget, s.name);
  }
}

TEST(BufferPoolEquivalenceTest, ResetReplaysLikeAFreshSeedPool) {
  // One pool driven through Reset cycles of varying capacities and page
  // spaces must behave like a factory-fresh seed pool of each capacity —
  // reused slabs and index entries carry no observable state across cycles
  // (a stale page -> slot entry would show up as a spurious hit).
  struct Cycle {
    uint64_t capacity;
    uint64_t page_space;
    uint64_t prewarm;
  };
  const Cycle cycles[] = {
      {2048, 8192, 0},     // the engine's largest page space
      {64, 256, 0},        // shrink both
      {1, 4, 0},           // a single slot over a tiny page space
      {512, 2048, 512},    // grow again, prewarmed like a warm start
      {4096, 1024, 1024},  // capacity above the page space, fully prewarmed
      {5000, 600, 0},      // capacity above the page space, cold
      {64, 8192, 0},       // small pool over the largest page space
      {300, 12000, 64},    // page space beyond any earlier one
  };
  BufferPool pool(2048, 8192);
  for (const Cycle& c : cycles) {
    const std::string context = "reset to " + std::to_string(c.capacity) +
                                " over " + std::to_string(c.page_space);
    pool.Reset(c.capacity, c.page_space);
    EXPECT_EQ(pool.capacity(), c.capacity);
    EXPECT_EQ(pool.resident_pages(), 0u);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.misses(), 0u);
    EXPECT_EQ(pool.dirty_pages(), 0u);
    seedref::SeedBufferPool seed(c.capacity);
    if (c.prewarm > 0) {
      pool.Prewarm(c.prewarm);
      seed.Prewarm(c.prewarm);
    }
    CompareAccess(&pool, &seed, c.page_space - 1, true, context + " first");
    common::Rng rng(42 + c.capacity);
    ReplayAndCompare(&pool, &seed, &rng, c.page_space, 0.5, 3000, 128, 4,
                     context);
    CompareAccess(&pool, &seed, c.page_space - 1, false, context + " last");
  }
}

// The page cleaner resumes its walk where the last one stopped: every slot
// colder than that frontier is clean. These streams move the frontier slot
// to the front, empty the pool's dirty set, and reuse slots across a Reset,
// and each flush must clean exactly as many pages as the seed pool's walk
// from the tail.
TEST(BufferPoolEquivalenceTest, FlushFrontierMatchesSeedExactly) {
  struct Phase {
    double dirty_prob;
    int steps;
    uint64_t flush_every;
    uint64_t flush_budget;
  };
  struct Scenario {
    const char* name;
    uint64_t capacity;
    uint64_t page_space;
    uint64_t prewarm;
    Phase first;
    Phase second;
    bool reset_between;  // Reset both pools before the second phase
  };
  const Scenario scenarios[] = {
      // Every access dirties its page and one page is cleaned per step, so
      // the frontier trails the head by a few slots and hits move it.
      {"write-only, budget 1 every step", 48, 256, 0, {1.0, 2000, 1, 1},
       {1.0, 2000, 1, 1}, false},
      // Each flush cleans every dirty page and ends past the head.
      {"budget above the dirty count", 64, 512, 0, {0.5, 2000, 16, 1000},
       {0.8, 2000, 5, 1000}, false},
      // The frontier, the head and the tail are one slot.
      {"capacity one", 1, 32, 0, {0.7, 2000, 1, 1}, {0.3, 2000, 3, 2},
       false},
      // A prewarmed pool read for a while leaves no dirty page; writes then
      // start the frontier at the head.
      {"read-only prewarmed, then writes", 128, 1024, 128, {0.0, 1500, 4, 2},
       {0.6, 2500, 8, 3}, false},
      // A Reset in mid-stream clears the frontier with the pool.
      {"reset in mid-stream", 96, 512, 0, {0.9, 1500, 2, 1},
       {0.5, 2500, 3, 2}, true},
  };
  for (const Scenario& s : scenarios) {
    BufferPool pool(s.capacity, s.page_space);
    seedref::SeedBufferPool seed(s.capacity);
    if (s.prewarm > 0) {
      pool.Prewarm(s.prewarm);
      seed.Prewarm(s.prewarm);
    }
    common::Rng rng(29);
    ReplayAndCompare(&pool, &seed, &rng, s.page_space, s.first.dirty_prob,
                     s.first.steps, s.first.flush_every, s.first.flush_budget,
                     std::string(s.name) + " first phase");
    seedref::SeedBufferPool fresh(s.capacity);
    seedref::SeedBufferPool* second = &seed;
    if (s.reset_between) {
      pool.Reset(s.capacity, s.page_space);
      second = &fresh;
    }
    ReplayAndCompare(&pool, second, &rng, s.page_space, s.second.dirty_prob,
                     s.second.steps, s.second.flush_every,
                     s.second.flush_budget,
                     std::string(s.name) + " second phase");
  }
}

}  // namespace
}  // namespace hunter::cdb
