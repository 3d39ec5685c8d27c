#include "ml/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/ml/bit_digest.h"

namespace hunter::ml {
namespace {

// One query point through the batch API, the GP's only prediction path.
GaussianProcess::Prediction PredictOne(const GaussianProcess& gp,
                                       const std::vector<double>& q) {
  std::vector<GaussianProcess::Prediction> out;
  gp.PredictBatch(linalg::Matrix(std::vector<std::vector<double>>{q}), &out);
  return out[0];
}

double ExpectedImprovementOne(const GaussianProcess& gp,
                              const std::vector<double>& q,
                              double best_so_far) {
  std::vector<double> out;
  gp.ExpectedImprovementBatch(
      linalg::Matrix(std::vector<std::vector<double>>{q}), best_so_far, &out);
  return out[0];
}

TEST(GpTest, InterpolatesTrainingPoints) {
  linalg::Matrix x({{0.1}, {0.5}, {0.9}});
  std::vector<double> y = {1.0, 3.0, 2.0};
  GpOptions options;
  options.length_scale = 0.2;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(PredictOne(gp, x.Row(i)).mean, y[i], 0.1);
  }
}

TEST(GpTest, VarianceSmallNearDataLargeFar) {
  linalg::Matrix x({{0.4}, {0.5}, {0.6}});
  std::vector<double> y = {1.0, 1.1, 0.9};
  GpOptions options;
  options.length_scale = 0.1;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  const double near = PredictOne(gp, {0.5}).variance;
  const double far = PredictOne(gp, {0.0}).variance;
  EXPECT_LT(near, far);
  EXPECT_GT(far, 0.5);  // far points revert toward prior variance 1.0
}

TEST(GpTest, UnfittedPredictsPrior) {
  GaussianProcess gp;
  const auto p = PredictOne(gp, {0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GpTest, MeanRevertsToDataMeanFarAway) {
  linalg::Matrix x({{0.45}, {0.5}, {0.55}});
  std::vector<double> y = {10.0, 12.0, 11.0};
  GpOptions options;
  options.length_scale = 0.05;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  EXPECT_NEAR(PredictOne(gp, {0.0}).mean, 11.0, 0.5);
}

TEST(GpTest, ExpectedImprovementPositiveWhereUncertain) {
  linalg::Matrix x(std::vector<std::vector<double>>{{0.2}, {0.3}});
  std::vector<double> y = {1.0, 1.2};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));
  const double ei_far = ExpectedImprovementOne(gp, {0.9}, 1.2);
  EXPECT_GT(ei_far, 0.0);
}

TEST(GpTest, ExpectedImprovementNearZeroAtDominatedKnownPoint) {
  linalg::Matrix x(std::vector<std::vector<double>>{{0.2}, {0.8}});
  std::vector<double> y = {0.0, 2.0};
  GpOptions options;
  options.length_scale = 0.1;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  // At the known bad point, EI over best=2.0 should be tiny.
  EXPECT_LT(ExpectedImprovementOne(gp, {0.2}, 2.0), 0.05);
  EXPECT_GT(ExpectedImprovementOne(gp, {0.5}, 2.0),
            ExpectedImprovementOne(gp, {0.2}, 2.0));
}

// ---------------------------------------------------------------------------
// Refit and batch-scoring contracts (DESIGN.md §11).

void MakeRandomTraining(size_t n, size_t d, common::Rng* rng, linalg::Matrix* x,
                        std::vector<double>* y) {
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    double label = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double v = rng->Uniform(0.0, 1.0);
      x->At(r, c) = v;
      label += v * static_cast<double>(c + 1) * 0.3;
    }
    (*y)[r] = std::sin(label) + rng->Gaussian(0.0, 0.05);
  }
}

linalg::Matrix RowSlice(const linalg::Matrix& x, size_t begin, size_t end) {
  linalg::Matrix out(end - begin, x.cols());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < x.cols(); ++c) out.At(r - begin, c) = x.At(r, c);
  }
  return out;
}

TEST(GpTest, RefitOnSlidWindowMatchesFreshFit) {
  common::Rng rng(102);
  const size_t n = 12;
  linalg::Matrix x;
  std::vector<double> y;
  MakeRandomTraining(n, 3, &rng, &x, &y);

  // A growing window, then a slid one (drops the oldest row), as the BO
  // tuners refit: nothing from the earlier fits may leak into the last.
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(RowSlice(x, 0, 8), {y.begin(), y.begin() + 8}));
  ASSERT_TRUE(gp.Fit(RowSlice(x, 0, 9), {y.begin(), y.begin() + 9}));
  ASSERT_TRUE(gp.Fit(RowSlice(x, 1, 10), {y.begin() + 1, y.begin() + 10}));

  GaussianProcess fresh;
  ASSERT_TRUE(fresh.Fit(RowSlice(x, 1, 10), {y.begin() + 1, y.begin() + 10}));
  linalg::Matrix q(10, 3);
  for (size_t r = 0; r < q.rows(); ++r) {
    for (size_t c = 0; c < q.cols(); ++c) q.At(r, c) = rng.Uniform();
  }
  std::vector<GaussianProcess::Prediction> refit, fresh_fit;
  gp.PredictBatch(q, &refit);
  fresh.PredictBatch(q, &fresh_fit);
  ASSERT_EQ(refit.size(), fresh_fit.size());
  for (size_t r = 0; r < refit.size(); ++r) {
    EXPECT_NEAR(refit[r].mean, fresh_fit[r].mean, 1e-12);
    EXPECT_NEAR(refit[r].variance, fresh_fit[r].variance, 1e-12);
  }
}

// FNV-1a over the bit patterns of every PredictBatch mean and variance,
// then every ExpectedImprovementBatch score, so a one-ulp change to any
// output changes the digest.
uint64_t BatchOutputDigest(const GaussianProcess& gp, const linalg::Matrix& q,
                           double best_so_far) {
  std::vector<GaussianProcess::Prediction> predictions;
  gp.PredictBatch(q, &predictions);
  std::vector<double> scores;
  gp.ExpectedImprovementBatch(q, best_so_far, &scores);
  BitDigest digest;
  for (const auto& p : predictions) {
    digest.Mix(p.mean);
    digest.Mix(p.variance);
  }
  digest.Mix(scores);
  return digest.value();
}

// The batch outputs are pinned as golden data; ref::SeedGp in
// bench_micro_hotpaths is their independent formula (gp_ei_batch_vs_seed,
// <= 1e-9). The digests were recorded with a one-candidate-at-a-time
// substitution, so they also prove that the candidate lanes reproduce it
// bit for bit, at both SIMD tiers. They pin this platform's libm exp and
// erfc as well.
TEST(GpTest, BatchOutputsMatchGoldenDigest) {
  struct Case {
    size_t n, d, m;
    uint64_t digest;
  };
  // (120, 65, 200) is an OtterTune proposal: a full window on the MySQL
  // catalog, 200 candidates. The others cover a single training point and
  // candidate counts off the 16- and 4-lane blocks.
  const Case cases[] = {
      {120, 65, 200, 0xdeb1eed4eb274e57ull},
      {1, 3, 1, 0x2d474f1989d881b9ull},
      {7, 4, 17, 0xeb5ac8cc14ffd67full},
      {25, 4, 40, 0xce4c394e55dc8ca0ull},
  };
  for (const Case& c : cases) {
    common::Rng rng(1000 + c.n);
    linalg::Matrix x;
    std::vector<double> y;
    MakeRandomTraining(c.n, c.d, &rng, &x, &y);
    // Pulled toward the centre, the training points correlate (k ≈ 0.34
    // between two of them at d = 65), so the substitution's products are
    // not lost in the rounding of its sums.
    for (size_t r = 0; r < c.n; ++r) {
      for (size_t col = 0; col < c.d; ++col) {
        x.At(r, col) = 0.5 + 0.4 * (x.At(r, col) - 0.5);
      }
    }
    GaussianProcess gp;
    ASSERT_TRUE(gp.Fit(x, y));
    // Even rows are far from the data (variance near the prior); odd rows
    // perturb a training point, so ‖L⁻¹k*‖² is large and every ulp of the
    // substitution reaches the variance.
    linalg::Matrix q(c.m, c.d);
    for (size_t r = 0; r < c.m; ++r) {
      for (size_t col = 0; col < c.d; ++col) {
        q.At(r, col) = r % 2 == 0
                           ? rng.Uniform(-0.2, 1.2)
                           : x.At(r / 2 % c.n, col) + rng.Uniform(-0.1, 0.1);
      }
    }
    const double best = *std::max_element(y.begin(), y.end());
    EXPECT_EQ(BatchOutputDigest(gp, q, best), c.digest)
        << "n=" << c.n << " d=" << c.d << " m=" << c.m << " digest 0x"
        << std::hex << BatchOutputDigest(gp, q, best);
  }

  GaussianProcess unfitted;
  const linalg::Matrix q(
      std::vector<std::vector<double>>{{0.1, 0.2}, {0.9, -0.3}, {0.5, 0.5}});
  EXPECT_EQ(BatchOutputDigest(unfitted, q, 0.25), 0x9b9be97ee6428b13ull)
      << "unfitted digest 0x" << std::hex
      << BatchOutputDigest(unfitted, q, 0.25);
}

TEST(GpTest, BatchOnUnfittedGpReturnsPrior) {
  GaussianProcess gp;
  linalg::Matrix q(std::vector<std::vector<double>>{{0.1}, {0.9}});
  std::vector<GaussianProcess::Prediction> batch;
  gp.PredictBatch(q, &batch);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& p : batch) {
    EXPECT_DOUBLE_EQ(p.mean, 0.0);
    EXPECT_DOUBLE_EQ(p.variance, 1.0);
  }
}

TEST(GpTest, FitsMultiDimensionalFunction) {
  common::Rng rng(1);
  const size_t n = 60;
  linalg::Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = rng.Uniform();
    x.At(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x.At(i, 0)) + x.At(i, 1);
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));
  double total_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> q = {rng.Uniform(), rng.Uniform()};
    total_err += std::abs(PredictOne(gp, q).mean - (std::sin(3 * q[0]) + q[1]));
  }
  EXPECT_LT(total_err / 20.0, 0.15);
}

}  // namespace
}  // namespace hunter::ml
