#include "ml/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/ml/bit_digest.h"
#include "tests/ml/seed_ml_ref.h"

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

// The bits of a double, so a comparison counts signed zeros and NaN
// payloads.
uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(GpTest, RefitOnSlidWindowMatchesFreshFit) {
  common::Rng rng(102);
  const size_t n = 12;
  linalg::Matrix x;
  std::vector<double> y;
  MakeRandomTraining(n, 3, &rng, &x, &y);

  // A growing window, then a slid one (drops the oldest row), as the BO
  // tuners refit: what the last fit keeps from the earlier ones must be
  // exactly what a fresh fit computes.
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
    EXPECT_EQ(Bits(refit[r].mean), Bits(fresh_fit[r].mean)) << "query " << r;
    EXPECT_EQ(Bits(refit[r].variance), Bits(fresh_fit[r].variance))
        << "query " << r;
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

// A named training window for the refit sequence below.
struct Window {
  const char* what;
  linalg::Matrix x;
  std::vector<double> y;
};

Window Slice(const char* what, const linalg::Matrix& x,
             const std::vector<double>& y, size_t begin, size_t end) {
  return {what, RowSlice(x, begin, end),
          {y.begin() + static_cast<long>(begin),
           y.begin() + static_cast<long>(end)}};
}

// The rows of `x` at `picks`, in that order.
Window Pick(const char* what, const linalg::Matrix& x,
            const std::vector<double>& y, const std::vector<size_t>& picks) {
  Window w{what, linalg::Matrix(picks.size(), x.cols()), {}};
  for (size_t r = 0; r < picks.size(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) w.x.At(r, c) = x.At(picks[r], c);
    w.y.push_back(y[picks[r]]);
  }
  return w;
}

// One GP driven through every kind of refit Fit distinguishes, each
// followed by the same queries on a fresh GP fitted to the same data: the
// digests must be equal after every fit. The windows are row slices of one
// pool, so consecutive training sets share runs of rows at various offsets.
TEST(GpTest, RefitSequenceMatchesFreshFits) {
  common::Rng rng(0x6EF17);
  linalg::Matrix pool, wide;
  std::vector<double> y, wide_y;
  MakeRandomTraining(200, 7, &rng, &pool, &y);
  MakeRandomTraining(200, 65, &rng, &wide, &wide_y);

  std::vector<Window> windows;
  windows.push_back(Slice("fresh", pool, y, 0, 30));
  windows.push_back(Slice("grow by one", pool, y, 0, 31));
  windows.push_back(Slice("slide by one", pool, y, 1, 32));
  windows.push_back(Slice("slide by five", pool, y, 6, 37));
  windows.push_back(Slice("same window", pool, y, 6, 37));
  windows.push_back(Slice("slide by one, grow by two", pool, y, 7, 40));
  windows.push_back(Slice("middle row changed", pool, y, 7, 40));
  for (size_t c = 0; c < pool.cols(); ++c) {
    windows.back().x.At(16, c) = rng.Uniform();
  }
  // The changed window's first 20 rows: all kept, none new.
  windows.push_back(Slice("shrink", windows.back().x, windows.back().y, 0, 20));
  windows.push_back(Slice("shrink from the front", pool, y, 11, 27));
  windows.push_back(Slice("nothing shared", pool, y, 100, 130));
  // Rows A B A C D, then A C D E: the first row matches at shifts 0 and 2,
  // and only shift 2 carries on.
  windows.push_back(Pick("duplicate rows", pool, y, {150, 151, 150, 152, 153}));
  windows.push_back(
      Pick("ambiguous first-row match", pool, y, {150, 152, 153, 154}));
  // A change of d, then the BO tuners' shape: 65 knobs, growing into the
  // 120-row window and sliding by one.
  windows.push_back(Slice("change of d", wide, wide_y, 0, 119));
  windows.push_back(Slice("grow to the full window", wide, wide_y, 0, 120));
  windows.push_back(Slice("full window, slide by one", wide, wide_y, 1, 121));
  windows.push_back(Slice("full window, slide again", wide, wide_y, 2, 122));

  GaussianProcess gp;
  for (const Window& w : windows) {
    SCOPED_TRACE(w.what);
    ASSERT_TRUE(gp.Fit(w.x, w.y));
    GaussianProcess fresh;
    ASSERT_TRUE(fresh.Fit(w.x, w.y));
    // Even rows far from the data, odd rows near a training point.
    linalg::Matrix q(21, w.x.cols());
    for (size_t r = 0; r < q.rows(); ++r) {
      for (size_t c = 0; c < q.cols(); ++c) {
        q.At(r, c) = r % 2 == 0 ? rng.Uniform()
                                : w.x.At(r % w.x.rows(), c) +
                                      rng.Uniform(-0.05, 0.05);
      }
    }
    const double best = *std::max_element(w.y.begin(), w.y.end());
    EXPECT_EQ(BatchOutputDigest(gp, q, best),
              BatchOutputDigest(fresh, q, best));
  }
}

// The batch outputs are pinned as golden data; ref::SeedGp
// (tests/ml/seed_ml_ref.h) is their independent formula, checked to 1e-9 by
// the two SeedGp tests below. The digests were recorded with a
// one-candidate-at-a-time substitution, so they also prove that the
// candidate lanes reproduce it bit for bit, at both SIMD tiers. They pin
// this platform's libm exp and erfc as well.
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

// The BO tuners' window fill: one Fit per observation over a growing
// sample window. After the last fit the production GP's batch posterior
// (mean, variance) and EI at 16 probes must match the seed GP's per-point
// Predict and ExpectedImprovement (a forward and a back substitution per
// point) to 1e-9. Shapes: a small window, and 120 samples of 48 knobs.
TEST(GpTest, WindowGrowthMatchesSeedGp) {
  struct Shape {
    size_t n, d;
  };
  for (const Shape& s : {Shape{24, 8}, Shape{120, 48}}) {
    common::Rng data_rng(0xBEEF09);
    linalg::Matrix x;
    std::vector<double> y;
    ref::MakeRegressionData(s.n, s.d, &data_rng, &x, &y);

    ref::SeedGp seed_gp;
    GaussianProcess gp;
    for (size_t m = 4; m <= s.n; ++m) {
      const linalg::Matrix window = RowSlice(x, 0, m);
      const std::vector<double> targets(y.begin(),
                                        y.begin() + static_cast<long>(m));
      ASSERT_TRUE(seed_gp.Fit(window, targets));
      ASSERT_TRUE(gp.Fit(window, targets));
    }
    common::Rng probe_rng(0xBEEF10);
    linalg::Matrix probes(16, s.d);
    for (size_t p = 0; p < probes.rows(); ++p) {
      for (size_t c = 0; c < s.d; ++c) {
        probes.At(p, c) = probe_rng.Uniform(0.0, 1.0);
      }
    }
    std::vector<GaussianProcess::Prediction> predictions;
    gp.PredictBatch(probes, &predictions);
    std::vector<double> scores;
    gp.ExpectedImprovementBatch(probes, 0.5, &scores);
    ASSERT_EQ(predictions.size(), probes.rows());
    ASSERT_EQ(scores.size(), probes.rows());
    for (size_t p = 0; p < probes.rows(); ++p) {
      const std::vector<double> probe = probes.Row(p);
      const GaussianProcess::Prediction want = seed_gp.Predict(probe);
      EXPECT_NEAR(predictions[p].mean, want.mean, 1e-9) << "probe " << p;
      EXPECT_NEAR(predictions[p].variance, want.variance, 1e-9)
          << "probe " << p;
      EXPECT_NEAR(scores[p], seed_gp.ExpectedImprovement(probe, 0.5), 1e-9)
          << "probe " << p;
    }
  }
}

// One OtterTune proposal: EI over the whole candidate batch in one
// call must match the seed GP scoring each candidate alone, to 1e-9.
// Shapes: 20 candidates over a small window, and 200 candidates over a
// full 120-sample window on the 65-knob catalog. Against the window's best
// (the tuners' incumbent) these candidates' EI is below 1e-5, so 1e-9 would
// bound it only loosely; against the window's mean target it is on the
// order of the posterior's standard deviation, and 1e-9 is tight.
TEST(GpTest, ExpectedImprovementBatchMatchesSeedGp) {
  struct Shape {
    size_t n, d, candidates;
  };
  for (const Shape& s : {Shape{24, 8, 20}, Shape{120, 65, 200}}) {
    common::Rng data_rng(0xBEEF11);
    linalg::Matrix x;
    std::vector<double> y;
    ref::MakeRegressionData(s.n, s.d, &data_rng, &x, &y);
    ref::SeedGp seed_gp;
    GaussianProcess gp;
    ASSERT_TRUE(seed_gp.Fit(x, y));
    ASSERT_TRUE(gp.Fit(x, y));
    const double best_y = *std::max_element(y.begin(), y.end());
    double mean_y = 0.0;
    for (const double v : y) mean_y += v;
    mean_y /= static_cast<double>(y.size());

    linalg::Matrix candidates(s.candidates, s.d);
    for (size_t r = 0; r < s.candidates; ++r) {
      for (size_t c = 0; c < s.d; ++c) {
        candidates.At(r, c) = data_rng.Uniform(-1.0, 1.0);
      }
    }
    for (const double best : {best_y, mean_y}) {
      std::vector<double> scores;
      gp.ExpectedImprovementBatch(candidates, best, &scores);
      ASSERT_EQ(scores.size(), s.candidates);
      for (size_t r = 0; r < s.candidates; ++r) {
        EXPECT_NEAR(scores[r],
                    seed_gp.ExpectedImprovement(candidates.Row(r), best), 1e-9)
            << "candidate " << r << ", best " << best;
      }
    }
  }
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
