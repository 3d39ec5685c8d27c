#include "ml/pca.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/ml/bit_digest.h"

namespace hunter::ml {
namespace {

// Builds a dataset where `dim` observed columns are linear mixtures of
// `latent` independent factors (plus small noise), mimicking how the 63 CDB
// metrics derive from a handful of internal engine quantities.
linalg::Matrix LatentMixture(size_t n, size_t dim, size_t latent,
                             double noise, common::Rng* rng) {
  linalg::Matrix mixing(latent, dim);
  for (size_t l = 0; l < latent; ++l) {
    for (size_t d = 0; d < dim; ++d) mixing.At(l, d) = rng->Gaussian();
  }
  linalg::Matrix data(n, dim);
  for (size_t r = 0; r < n; ++r) {
    std::vector<double> factors(latent);
    for (size_t l = 0; l < latent; ++l) factors[l] = rng->Gaussian();
    for (size_t d = 0; d < dim; ++d) {
      double value = 0.0;
      for (size_t l = 0; l < latent; ++l) value += factors[l] * mixing.At(l, d);
      data.At(r, d) = value + noise * rng->Gaussian();
    }
  }
  return data;
}

TEST(PcaTest, ExplainedVarianceSumsToOne) {
  common::Rng rng(1);
  Pca pca;
  pca.Fit(LatentMixture(200, 10, 3, 0.1, &rng));
  double total = 0.0;
  for (double r : pca.explained_variance_ratio()) total += r;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PcaTest, RatiosAreDescending) {
  common::Rng rng(2);
  Pca pca;
  pca.Fit(LatentMixture(200, 12, 4, 0.1, &rng));
  const auto& ratios = pca.explained_variance_ratio();
  for (size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_LE(ratios[i], ratios[i - 1] + 1e-12);
  }
}

TEST(PcaTest, LatentDimensionRecovered) {
  common::Rng rng(3);
  Pca pca;
  // 30 metrics driven by 5 latent factors: ~5 components should explain 90%.
  pca.Fit(LatentMixture(400, 30, 5, 0.05, &rng));
  const size_t k = pca.ComponentsForVariance(0.90);
  EXPECT_LE(k, 7u);
  EXPECT_GE(k, 4u);
}

TEST(PcaTest, CumulativeRatioMonotone) {
  common::Rng rng(4);
  Pca pca;
  pca.Fit(LatentMixture(100, 8, 3, 0.2, &rng));
  const auto cdf = pca.CumulativeVarianceRatio();
  for (size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

TEST(PcaTest, LoadStateRejectsMalformedDimension) {
  common::Rng rng(6);
  Pca fitted;
  fitted.Fit(LatentMixture(50, 3, 2, 0.1, &rng));
  const std::vector<double> good = fitted.SaveState();
  ASSERT_EQ(good.size(), 2u + 3u * 3u + 3u * 3u);

  Pca restored;
  ASSERT_TRUE(restored.LoadState(good));
  EXPECT_EQ(restored.input_dim(), 3u);
  EXPECT_EQ(restored.SaveState(), good);

  // Each buffer is sized for the dimension its state[0] truncates to, so
  // only the dimension check can reject it.
  auto with_dim = [](double dim, size_t as_dim) {
    std::vector<double> state(2 + 3 * as_dim + as_dim * as_dim, 0.5);
    state[0] = dim;
    return state;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& bad :
       {with_dim(1.5, 1), with_dim(2.999, 2), with_dim(0.0, 0),
        with_dim(0.5, 0), with_dim(-1.0, 0), with_dim(nan, 0),
        with_dim(inf, 0), with_dim(-inf, 0), with_dim(1e300, 0),
        with_dim(18446744073709547520.0, 0),  // 2^64 - 4096
        std::vector<double>{3.0}}) {
    Pca pca = restored;
    EXPECT_FALSE(pca.LoadState(bad)) << "state[0] = " << bad[0];
    EXPECT_EQ(pca.SaveState(), good);  // left as it was
  }
}

TEST(PcaTest, TransformReducesDimension) {
  common::Rng rng(5);
  Pca pca;
  linalg::Matrix data = LatentMixture(100, 10, 3, 0.1, &rng);
  pca.Fit(data);
  const auto projected = pca.Transform(data.Row(0), 4);
  EXPECT_EQ(projected.size(), 4u);
}

// FNV-1a over a 240 x 63 fit's saved state (means, stds, explained ratios
// and components), the standardized matrix, and the projections of 8 rows
// at k = 5 and at the full k. Column 17 is constant, so its std is 0 and
// the guarded divide skips it.
uint64_t FitAndTransformDigest(bool standardize) {
  common::Rng rng(28);
  linalg::Matrix data = LatentMixture(240, 63, 9, 0.1, &rng);
  for (size_t r = 0; r < data.rows(); ++r) data.At(r, 17) = 3.5;
  Pca pca;
  pca.Fit(data, standardize);
  BitDigest digest;
  digest.Mix(pca.SaveState());
  digest.Mix(linalg::Standardize(data, standardize));
  for (size_t r = 0; r < 8; ++r) {
    digest.Mix(pca.Transform(data.Row(30 * r), 5));
    digest.Mix(pca.Transform(data.Row(30 * r), data.cols()));
  }
  return digest.value();
}

// Recorded at both SIMD tiers, which agreed, while the column statistics
// and the standardize loop still ran through linalg/simd/ kernels. Pins
// ColumnMeans, ColumnStdDevs, Standardize, Covariance, the eigensolver and
// Transform to the bit.
TEST(PcaTest, FitAndTransformMatchGoldenDigest) {
  for (const bool standardize : {true, false}) {
    const uint64_t expected =
        standardize ? 0xfbc08191c7929aadull : 0xd895351b6e7115c8ull;
    EXPECT_EQ(FitAndTransformDigest(standardize), expected)
        << "standardize " << standardize << " digest 0x" << std::hex
        << FitAndTransformDigest(standardize);
  }
}

TEST(PcaTest, ComponentsAreUncorrelated) {
  common::Rng rng(6);
  Pca pca;
  linalg::Matrix data = LatentMixture(300, 10, 4, 0.1, &rng);
  pca.Fit(data);
  linalg::Matrix z(data.rows(), 3);
  for (size_t r = 0; r < data.rows(); ++r) {
    const std::vector<double> projected = pca.Transform(data.Row(r), 3);
    std::copy(projected.begin(), projected.end(), z.Data() + 3 * r);
  }
  linalg::Matrix cov = linalg::Covariance(z);
  EXPECT_NEAR(cov.At(0, 1), 0.0, 1e-6);
  EXPECT_NEAR(cov.At(0, 2), 0.0, 1e-6);
  EXPECT_NEAR(cov.At(1, 2), 0.0, 1e-6);
}

TEST(PcaTest, FirstComponentCapturesDominantDirection) {
  // Two columns, second = 3x first: one component should capture ~everything.
  common::Rng rng(7);
  linalg::Matrix data(100, 2);
  for (size_t r = 0; r < 100; ++r) {
    const double v = rng.Gaussian();
    data.At(r, 0) = v;
    data.At(r, 1) = 3.0 * v;
  }
  Pca pca;
  pca.Fit(data);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.999);
  EXPECT_EQ(pca.ComponentsForVariance(0.9), 1u);
}

TEST(PcaTest, StandardizationHandlesScaleDifferences) {
  // Without standardization a huge-scale noise column dominates; with it,
  // the correlated structure should dominate component 1.
  common::Rng rng(8);
  linalg::Matrix data(200, 3);
  for (size_t r = 0; r < 200; ++r) {
    const double shared = rng.Gaussian();
    data.At(r, 0) = shared;
    data.At(r, 1) = shared + 0.01 * rng.Gaussian();
    data.At(r, 2) = 1e6 * rng.Gaussian();  // independent, huge units
  }
  Pca pca;
  pca.Fit(data, /*standardize=*/true);
  // Shared factor spans 2 of 3 standardized columns -> ~2/3 of variance.
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.6);
}

}  // namespace
}  // namespace hunter::ml
