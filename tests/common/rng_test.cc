#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/common/seed_zipf_ref.h"

namespace hunter::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(29);
  const ZipfTable zipf(1000, 0.8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(&rng), 1000u);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(31);
  const ZipfTable zipf(10000, 0.9);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 100) ++low;  // top 1% of keys
  }
  // With theta=0.9 the head should absorb far more than the uniform 1%.
  EXPECT_GT(static_cast<double>(low) / n, 0.2);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(37);
  const ZipfTable zipf(1000, 0.0);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsIsUniform) {
  Rng rng(43);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(53);
  Rng child = parent.Fork();
  // Forking perturbs the parent; child stream differs from parent stream.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------------------
// Zipf fast-path equivalence: ZipfTable must reproduce the seed's per-call
// Rng::Zipf (seedref::SeedZipf, tests/common/seed_zipf_ref.h) bit for bit —
// same draws consumed, same ranks returned — across every (n, theta)
// rebinding and the degenerate paths.
// ---------------------------------------------------------------------------

TEST(RngTest, ZipfBitIdenticalToSeedFormulaAcrossCacheTransitions) {
  // Alternating (n, theta) pairs force a constants recompute on nearly every
  // draw block, on both sides: the seed formula's cache and one ZipfTable
  // rebound per block. They cover small exact-sum n, large integral-tail n
  // and the degenerate paths.
  const struct {
    uint64_t n;
    double theta;
  } params[] = {
      {4096, 0.9},    {1u << 24, 0.8}, {4096, 0.9}, {100, 0.99},
      {1, 0.9},       {64, 0.0},       {0, 0.5},    {1u << 24, 0.8},
      {16384, 1.2},   {16385, 0.7},
  };
  Rng seed_rng(2024);
  Rng fast_rng(2024);
  seedref::SeedZipfState state;
  ZipfTable table;
  for (int round = 0; round < 32; ++round) {
    for (const auto& p : params) {
      table.Rebind(p.n, p.theta);
      for (int i = 0; i < 8; ++i) {
        const uint64_t want =
            seedref::SeedZipf(&state, &seed_rng, p.n, p.theta);
        const uint64_t got = table.Sample(&fast_rng);
        ASSERT_EQ(want, got)
            << "n=" << p.n << " theta=" << p.theta << " round " << round;
      }
    }
  }
  // Same draw count and order on both sides.
  EXPECT_EQ(seed_rng.NextU64(), fast_rng.NextU64());
}

// ---------------------------------------------------------------------------
// Threshold-table exactness: a tabulated ZipfTable must return
// ZipfParams::Rank(u), the pow formula, for every u (rng.h states the
// argument). The cases are every standard workload's page stream and a grid
// of small to page-sized n over low, middle and high skew.
// ---------------------------------------------------------------------------

struct ZipfCase {
  uint64_t n;
  double theta;
};

std::vector<ZipfCase> TabulatedZipfCases() {
  // Page streams: Sysbench (8 GB at 1 MB pages), TPC-C (8.97 GB at 2 MB)
  // and Production 9am/9pm (256 GB at 32 MB), capped at 8192 pages.
  std::vector<ZipfCase> cases = {
      {8192, 0.65}, {4592, 0.75}, {8192, 0.85}, {8192, 0.78}};
  for (const uint64_t n : {3u, 16u, 17u, 1000u, 8192u}) {
    for (const double theta : {0.01, 0.5, 0.99}) cases.push_back({n, theta});
  }
  return cases;
}

std::string CaseName(const ZipfCase& c) {
  return "n=" + std::to_string(c.n) + " theta=" + std::to_string(c.theta);
}

TEST(RngTest, ZipfTableDrawsMatchPowFormula) {
  constexpr int kDraws = 1 << 20;
  uint64_t seed = 500;
  for (const ZipfCase& c : TabulatedZipfCases()) {
    const ZipfTable table(c.n, c.theta);
    ASSERT_TRUE(table.tabulated()) << CaseName(c);
    const ZipfParams params = ZipfParams::Compute(c.n, c.theta);
    Rng table_rng(seed);
    Rng pow_rng(seed);
    ++seed;
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t got = table.Sample(&table_rng);
      const uint64_t want = params.Rank(pow_rng.Uniform());
      if (got != want && ++mismatches <= 3) {
        ADD_FAILURE() << CaseName(c) << " draw " << i << ": table " << got
                      << ", formula " << want;
      }
    }
    EXPECT_EQ(mismatches, 0) << CaseName(c);
    EXPECT_EQ(table_rng.StateFingerprint(), pow_rng.StateFingerprint())
        << CaseName(c);
  }
  // The lock-row streams (64 M rows on Sysbench, 3 M on Production) and
  // theta outside (0, 1) keep the pow path.
  EXPECT_FALSE(ZipfTable(64000000, 0.2).tabulated());
  EXPECT_FALSE(ZipfTable(3000000, 0.5).tabulated());
  EXPECT_FALSE(ZipfTable(8193, 0.8).tabulated());
  EXPECT_FALSE(ZipfTable(2, 0.8).tabulated());
  EXPECT_FALSE(ZipfTable(4096, 1.2).tabulated());
  EXPECT_FALSE(ZipfTable(4096, 0.0).tabulated());
}

TEST(RngTest, ZipfTableThresholdBandsMatchPowFormula) {
  // Around every crossing U_j the table answers at +-2g (outside the guard
  // band) and the formula at +-g/2 (inside it); both must give the
  // formula's rank. U_j is recomputed with the table's own expression, and
  // each probe is snapped down to the 53-bit grid Rng::Uniform draws from.
  for (const ZipfCase& c : TabulatedZipfCases()) {
    const ZipfTable table(c.n, c.theta);
    ASSERT_TRUE(table.tabulated()) << CaseName(c);
    const ZipfParams params = ZipfParams::Compute(c.n, c.theta);
    const double g = 0x1.0p-36 / params.eta;
    const double inv_alpha = 1.0 / params.alpha;
    const double dn = static_cast<double>(c.n);
    int mismatches = 0;
    for (uint64_t j = 1; j < c.n; ++j) {
      const double u_j =
          1.0 +
          (std::pow(static_cast<double>(j) / dn, inv_alpha) - 1.0) /
              params.eta;
      for (const double offset : {-2.0 * g, -0.5 * g, 0.5 * g, 2.0 * g}) {
        const double target = u_j + offset;
        if (!(target >= 0.0 && target < 1.0)) continue;
        const double u = std::floor(target * 0x1.0p53) * 0x1.0p-53;
        const uint64_t got = table.Rank(u);
        const uint64_t want = params.Rank(u);
        if (got != want && ++mismatches <= 3) {
          ADD_FAILURE() << CaseName(c) << " j=" << j << " offset "
                        << offset / g << "g: table " << got << ", formula "
                        << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << CaseName(c);
  }
}

TEST(RngTest, ZipfTableFillMatchesSequentialSample) {
  ZipfTable table(8192, 0.85);
  Rng fill_rng(9);
  Rng sample_rng(9);
  std::vector<uint64_t> filled(1000);
  table.Fill(&fill_rng, filled.data(), filled.size());
  for (size_t i = 0; i < filled.size(); ++i) {
    ASSERT_EQ(filled[i], table.Sample(&sample_rng)) << "draw " << i;
  }
}

TEST(RngTest, ZipfTableRebindIsNoOpOnSameParameters) {
  ZipfTable table(4096, 0.9);
  Rng a(31);
  Rng b(31);
  const uint64_t before = table.Sample(&a);
  table.Rebind(4096, 0.9);  // must not perturb the mapping
  EXPECT_EQ(before, table.Sample(&b));
}

}  // namespace
}  // namespace hunter::common
