#include "ml/mlp.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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

TEST(MlpTest, ForwardMatchesPredict) {
  common::Rng rng(2);
  Mlp net({3, 5, 2}, Activation::kTanh, Activation::kLinear, &rng);
  const std::vector<double> x = {0.5, -0.2, 0.9};
  EXPECT_EQ(net.Forward(x), net.Predict(x));
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
  // Train y = 2a - b on random points.
  for (int epoch = 0; epoch < 2000; ++epoch) {
    net.ZeroGradients();
    double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    const double target = 2 * a - b;
    const auto out = net.Forward({a, b});
    net.Backward({2.0 * (out[0] - target)});
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
  common::Rng rng(5);
  Mlp net({3, 6, 1}, Activation::kTanh, Activation::kLinear, &rng);
  const std::vector<double> x = {0.3, -0.4, 0.7};
  net.Forward(x);
  const std::vector<double> analytic = net.Backward({1.0});
  const double eps = 1e-6;
  for (size_t i = 0; i < x.size(); ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric =
        (net.Predict(xp)[0] - net.Predict(xm)[0]) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5);
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

TEST(MlpTest, ForwardBatchMatchesPerSampleForward) {
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
      EXPECT_NEAR(output.At(r, c), expected[c], 1e-9)
          << "row " << r << " col " << c;
    }
  }
}

TEST(MlpTest, BatchedTrainingMatchesPerSampleTraining) {
  // Two identical networks, one trained per-sample and one batched, must
  // stay equal (to 1e-9) across several Adam steps — the golden-equivalence
  // contract the batched DDPG path relies on.
  common::Rng rng(11);
  Mlp scalar_net({4, 10, 6, 2}, Activation::kReLU, Activation::kLinear, &rng);
  Mlp batch_net = scalar_net;
  const size_t batch = 8;
  common::Rng data_rng(12);
  for (int step = 0; step < 25; ++step) {
    linalg::Matrix input(batch, 4);
    linalg::Matrix grad(batch, 2);
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < 4; ++c) input.At(r, c) = data_rng.Uniform(-1, 1);
      for (size_t c = 0; c < 2; ++c) grad.At(r, c) = data_rng.Uniform(-1, 1);
    }
    scalar_net.ZeroGradients();
    std::vector<std::vector<double>> scalar_grad_in(batch);
    for (size_t r = 0; r < batch; ++r) {
      scalar_net.Forward(input.Row(r));
      scalar_grad_in[r] = scalar_net.Backward(grad.Row(r));
    }
    scalar_net.AdamStep(1e-3, batch);

    batch_net.ZeroGradients();
    linalg::Matrix output, grad_in;
    batch_net.ForwardBatch(input, &output);
    batch_net.BackwardBatch(grad, &grad_in);
    batch_net.AdamStep(1e-3, batch);

    ASSERT_EQ(grad_in.rows(), batch);
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < 4; ++c) {
        ASSERT_NEAR(grad_in.At(r, c), scalar_grad_in[r][c], 1e-9)
            << "step " << step;
      }
    }
  }
  const std::vector<double> a = scalar_net.SaveParameters();
  const std::vector<double> b = batch_net.SaveParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], b[i], 1e-9);
}

TEST(MlpTest, ZeroGradientsPreventsAccumulationCarryOver) {
  common::Rng rng(9);
  Mlp net({2, 4, 1}, Activation::kReLU, Activation::kLinear, &rng);
  net.Forward({1.0, 1.0});
  net.Backward({1.0});
  net.ZeroGradients();
  const auto before = net.Predict({1.0, 1.0});
  net.AdamStep(0.1, 1);  // gradients are zero -> parameters unchanged
  EXPECT_EQ(net.Predict({1.0, 1.0}), before);
}

}  // namespace
}  // namespace hunter::ml
