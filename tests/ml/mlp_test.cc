#include "ml/mlp.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/ml/bit_digest.h"

namespace hunter::ml {
namespace {

TEST(MlpTest, ShapesAreConsistent) {
  common::Rng rng(1);
  Mlp net({4, 8, 3}, Activation::kReLU, Activation::kLinear, &rng);
  EXPECT_EQ(net.input_dim(), 4u);
  EXPECT_EQ(net.output_dim(), 3u);
  const auto out = net.Predict({0.1, 0.2, 0.3, 0.4});
  EXPECT_EQ(out.size(), 3u);
}

TEST(MlpTest, TanhOutputBounded) {
  common::Rng rng(3);
  Mlp net({2, 16, 4}, Activation::kReLU, Activation::kTanh, &rng);
  const auto out = net.Predict({100.0, -100.0});
  for (double v : out) {
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, -1.0);
  }
}

TEST(MlpTest, LearnsLinearFunction) {
  common::Rng rng(4);
  Mlp net({2, 16, 1}, Activation::kReLU, Activation::kLinear, &rng);
  // Train y = 2a - b on random points, one per step.
  linalg::Matrix input(1, 2);
  linalg::Matrix output;
  linalg::Matrix grad(1, 1);
  for (int epoch = 0; epoch < 2000; ++epoch) {
    net.ZeroGradients();
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    input.At(0, 0) = a;
    input.At(0, 1) = b;
    net.ForwardBatch(input, &output);
    grad.At(0, 0) = 2.0 * (output.At(0, 0) - (2 * a - b));
    net.BackwardBatch(grad, nullptr);
    net.AdamStep(1e-2, 1);
  }
  double max_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    max_err = std::max(max_err,
                       std::abs(net.Predict({a, b})[0] - (2 * a - b)));
  }
  EXPECT_LT(max_err, 0.2);
}

TEST(MlpTest, BackwardGradientMatchesFiniteDifference) {
  // Loss = sum over rows and outputs of g ⊙ net(x) with random g, so row r
  // of BackwardBatch's input gradient is d(g_r · net(x_r))/dx_r, which
  // central differences of Predict approximate. The two nets cover each
  // activation's derivative; this check needs no recorded data.
  struct Case {
    std::vector<size_t> sizes;
    Activation hidden;
    Activation output;
    size_t rows;
  };
  const Case cases[] = {
      {{3, 6, 1}, Activation::kTanh, Activation::kLinear, 1},
      {{4, 9, 7, 3}, Activation::kReLU, Activation::kTanh, 6},
  };
  common::Rng rng(5);
  for (const Case& c : cases) {
    Mlp net(c.sizes, c.hidden, c.output, &rng);
    const size_t in = c.sizes.front();
    const size_t out = c.sizes.back();
    linalg::Matrix x(c.rows, in);
    linalg::Matrix g(c.rows, out);
    for (size_t r = 0; r < c.rows; ++r) {
      for (size_t i = 0; i < in; ++i) x.At(r, i) = rng.Uniform(-1.0, 1.0);
      for (size_t o = 0; o < out; ++o) g.At(r, o) = rng.Uniform(-1.0, 1.0);
    }
    linalg::Matrix y;
    linalg::Matrix analytic;
    net.ForwardBatch(x, &y);
    net.BackwardBatch(g, &analytic);
    ASSERT_EQ(analytic.rows(), c.rows);
    ASSERT_EQ(analytic.cols(), in);
    const double eps = 1e-6;
    for (size_t r = 0; r < c.rows; ++r) {
      for (size_t i = 0; i < in; ++i) {
        std::vector<double> xp = x.Row(r);
        std::vector<double> xm = x.Row(r);
        xp[i] += eps;
        xm[i] -= eps;
        const std::vector<double> yp = net.Predict(xp);
        const std::vector<double> ym = net.Predict(xm);
        double numeric = 0.0;
        for (size_t o = 0; o < out; ++o) {
          numeric += g.At(r, o) * (yp[o] - ym[o]) / (2 * eps);
        }
        EXPECT_NEAR(analytic.At(r, i), numeric, 1e-6)
            << "net of " << c.sizes.size() << " layers, row " << r
            << ", input " << i;
      }
    }
  }
}

TEST(MlpTest, SoftUpdateMovesTowardSource) {
  common::Rng rng(6);
  Mlp a({2, 4, 1}, Activation::kReLU, Activation::kLinear, &rng);
  Mlp b({2, 4, 1}, Activation::kReLU, Activation::kLinear, &rng);
  const auto before = b.Predict({0.5, 0.5})[0];
  const auto target = a.Predict({0.5, 0.5})[0];
  for (int i = 0; i < 400; ++i) b.SoftUpdateFrom(a, 0.05);
  const auto after = b.Predict({0.5, 0.5})[0];
  EXPECT_LT(std::abs(after - target), std::abs(before - target) + 1e-9);
  EXPECT_NEAR(after, target, 1e-3);
}

TEST(MlpTest, CopyFromReplicatesExactly) {
  common::Rng rng(7);
  Mlp a({3, 8, 2}, Activation::kReLU, Activation::kTanh, &rng);
  Mlp b({3, 8, 2}, Activation::kReLU, Activation::kTanh, &rng);
  b.CopyFrom(a);
  const std::vector<double> x = {0.1, 0.9, -0.5};
  EXPECT_EQ(a.Predict(x), b.Predict(x));
}

TEST(MlpTest, SaveLoadRoundTrip) {
  common::Rng rng(8);
  Mlp a({4, 10, 3}, Activation::kReLU, Activation::kTanh, &rng);
  Mlp b({4, 10, 3}, Activation::kReLU, Activation::kTanh, &rng);
  const std::vector<double> params = a.SaveParameters();
  const std::vector<double> before = b.SaveParameters();
  // A wrong length is rejected before any layer changes.
  EXPECT_FALSE(b.LoadParameters({params.begin(), params.end() - 1}));
  EXPECT_FALSE(b.LoadParameters(std::vector<double>(params.size() + 1, 0.0)));
  EXPECT_EQ(b.SaveParameters(), before);
  ASSERT_TRUE(b.LoadParameters(params));
  const std::vector<double> x = {0.2, 0.4, 0.6, 0.8};
  EXPECT_EQ(a.Predict(x), b.Predict(x));
  EXPECT_EQ(b.SaveParameters(), params);
}

// Act evaluates the policy with Predict and TrainStep with ForwardBatch, so
// the two must compute the same bits.
TEST(MlpTest, ForwardBatchRowsMatchPredict) {
  common::Rng rng(10);
  Mlp net({5, 12, 7, 3}, Activation::kReLU, Activation::kTanh, &rng);
  const size_t batch = 9;
  linalg::Matrix input(batch, 5);
  for (size_t r = 0; r < batch; ++r) {
    for (size_t c = 0; c < 5; ++c) input.At(r, c) = rng.Uniform(-2.0, 2.0);
  }
  linalg::Matrix output;
  net.ForwardBatch(input, &output);
  ASSERT_EQ(output.rows(), batch);
  ASSERT_EQ(output.cols(), 3u);
  for (size_t r = 0; r < batch; ++r) {
    const std::vector<double> expected = net.Predict(input.Row(r));
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(output.At(r, c), expected[c]) << "row " << r << " col " << c;
    }
  }
}

// FNV-1a over every step's outputs and input gradients, then the trained
// parameters: 25 Adam steps, each on a fresh random batch of 8 rows.
uint64_t TrainingDigest(const std::vector<size_t>& sizes,
                        Activation output_activation, uint64_t seed) {
  common::Rng rng(seed);
  Mlp net(sizes, Activation::kReLU, output_activation, &rng);
  const size_t batch = 8;
  linalg::Matrix input(batch, sizes.front());
  linalg::Matrix grad(batch, sizes.back());
  linalg::Matrix output;
  linalg::Matrix grad_input;
  BitDigest digest;
  for (int step = 0; step < 25; ++step) {
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < input.cols(); ++c) {
        input.At(r, c) = rng.Uniform(-1.0, 1.0);
      }
    }
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < grad.cols(); ++c) {
        grad.At(r, c) = rng.Uniform(-1.0, 1.0);
      }
    }
    net.ForwardBatch(input, &output);
    net.BackwardBatch(grad, &grad_input);
    net.AdamStep(1e-3, batch);
    digest.Mix(output);
    digest.Mix(grad_input);
  }
  digest.Mix(net.SaveParameters());
  return digest.value();
}

// The digests were recorded from the batched path and from the former
// per-sample Forward/Backward path, which agreed bit for bit at both SIMD
// tiers. They pin this platform's libm tanh as well.
TEST(MlpTest, TrainingMatchesGoldenDigest) {
  struct Case {
    std::vector<size_t> sizes;
    Activation output;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {{4, 10, 6, 2}, Activation::kLinear, 11, 0xc4d24cc3bea1b91bull},
      {{5, 12, 7, 3}, Activation::kTanh, 12, 0x9267e7e08d680774ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(TrainingDigest(c.sizes, c.output, c.seed), c.digest)
        << "seed " << c.seed << " digest 0x" << std::hex
        << TrainingDigest(c.sizes, c.output, c.seed);
  }
}

TEST(MlpTest, ZeroGradientsPreventsAccumulationCarryOver) {
  common::Rng rng(9);
  Mlp net({2, 4, 1}, Activation::kReLU, Activation::kLinear, &rng);
  const linalg::Matrix input(std::vector<std::vector<double>>{{1.0, 1.0}});
  const linalg::Matrix grad(std::vector<std::vector<double>>{{1.0}});
  linalg::Matrix output;
  net.ForwardBatch(input, &output);
  net.BackwardBatch(grad, nullptr);
  net.ZeroGradients();
  const auto before = net.Predict({1.0, 1.0});
  net.AdamStep(0.1, 1);  // gradients are zero -> parameters unchanged
  EXPECT_EQ(net.Predict({1.0, 1.0}), before);
}

}  // namespace
}  // namespace hunter::ml
