#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/cart.h"
#include "ml/random_forest.h"
#include "tests/ml/seed_ml_ref.h"

namespace hunter::ml {
namespace {

// y depends strongly on features 0 and 1, weakly on 2, not at all on 3..9.
void MakeKnobLikeData(size_t n, linalg::Matrix* x, std::vector<double>* y,
                      common::Rng* rng) {
  *x = linalg::Matrix(n, 10);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 10; ++c) x->At(r, c) = rng->Uniform();
    (*y)[r] = 5.0 * x->At(r, 0) + 3.0 * std::sin(3.0 * x->At(r, 1)) +
              0.3 * x->At(r, 2) + 0.05 * rng->Gaussian();
  }
}

TEST(CartTest, FitsPiecewiseConstantFunction) {
  common::Rng rng(1);
  linalg::Matrix x(200, 1);
  std::vector<double> y(200);
  for (size_t r = 0; r < 200; ++r) {
    x.At(r, 0) = rng.Uniform();
    y[r] = x.At(r, 0) > 0.5 ? 10.0 : -10.0;
  }
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  EXPECT_NEAR(tree.Predict({0.9}), 10.0, 0.5);
  EXPECT_NEAR(tree.Predict({0.1}), -10.0, 0.5);
}

TEST(CartTest, ConstantLabelsGiveSingleLeaf) {
  common::Rng rng(2);
  linalg::Matrix x(50, 3);
  std::vector<double> y(50, 7.0);
  for (size_t r = 0; r < 50; ++r) {
    for (size_t c = 0; c < 3; ++c) x.At(r, c) = rng.Uniform();
  }
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({0.5, 0.5, 0.5}), 7.0);
}

TEST(CartTest, RespectsMaxDepth) {
  common::Rng rng(3);
  linalg::Matrix x(512, 1);
  std::vector<double> y(512);
  for (size_t r = 0; r < 512; ++r) {
    x.At(r, 0) = static_cast<double>(r) / 512.0;
    y[r] = std::sin(20.0 * x.At(r, 0));
  }
  CartOptions options;
  options.max_depth = 2;
  CartTree tree;
  tree.Fit(x, y, options, &rng);
  // Depth-2 binary tree has at most 7 nodes.
  EXPECT_LE(tree.num_nodes(), 7u);
}

TEST(CartTest, ImportanceConcentratesOnInformativeFeature) {
  common::Rng rng(4);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(300, &x, &y, &rng);
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  const auto& importance = tree.feature_importance();
  EXPECT_GT(importance[0], importance[5]);
  EXPECT_GT(importance[1], importance[5]);
}

TEST(RandomForestTest, PredictsSmoothFunction) {
  common::Rng rng(5);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(400, &x, &y, &rng);
  RandomForestOptions options;
  options.num_trees = 40;
  RandomForest forest;
  forest.Fit(x, y, options, &rng);
  // Check in-sample fit quality on a handful of points.
  double total_abs_err = 0.0;
  for (size_t r = 0; r < 50; ++r) {
    total_abs_err += std::abs(forest.Predict(x.Row(r)) - y[r]);
  }
  EXPECT_LT(total_abs_err / 50.0, 0.8);
}

TEST(RandomForestTest, ImportanceSumsToOne) {
  common::Rng rng(6);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(200, &x, &y, &rng);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 20;
  forest.Fit(x, y, options, &rng);
  double total = 0.0;
  for (double v : forest.feature_importance()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForestTest, RanksInformativeKnobsFirst) {
  common::Rng rng(7);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(500, &x, &y, &rng);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 60;
  forest.Fit(x, y, options, &rng);
  const std::vector<size_t> ranking = forest.RankFeatures();
  // Features 0 and 1 must rank within the top 3.
  EXPECT_LE(std::min(ranking[0], ranking[1]), 1u);
  const auto& imp = forest.feature_importance();
  EXPECT_GT(imp[0] + imp[1], 0.6);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  linalg::Matrix x;
  std::vector<double> y;
  common::Rng data_rng(8);
  MakeKnobLikeData(150, &x, &y, &data_rng);
  RandomForestOptions options;
  options.num_trees = 10;

  common::Rng rng_a(99), rng_b(99);
  RandomForest fa, fb;
  fa.Fit(x, y, options, &rng_a);
  fb.Fit(x, y, options, &rng_b);
  EXPECT_EQ(fa.feature_importance(), fb.feature_importance());
  EXPECT_DOUBLE_EQ(fa.Predict(x.Row(3)), fb.Predict(x.Row(3)));
}

TEST(RandomForestTest, PaperScaleTwoHundredTrees) {
  // The paper's forest is 200 CARTs; ensure that scale trains fast enough
  // and produces a sane ranking on a small dataset.
  common::Rng rng(9);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(140, &x, &y, &rng);
  RandomForest forest;
  forest.Fit(x, y, RandomForestOptions{}, &rng);  // default 200 trees
  EXPECT_EQ(forest.num_trees(), 200u);
  const std::vector<size_t> ranking = forest.RankFeatures();
  EXPECT_EQ(ranking.size(), 10u);
}

// The seed forest (tests/ml/seed_ml_ref.h) fits every tree on a
// materialized bootstrap copy with a sort per (node, feature); the
// production forest presorts once and fits on index views. From one RNG
// state both must grow the same trees, so importances and predictions agree
// up to the order of the split sums (1e-9). Shapes: a small forest, and the
// search-space refresh's 200 trees over 140 samples of 65 knobs.
TEST(RandomForestTest, MatchesSeedReferenceForest) {
  struct Shape {
    size_t n, d, trees;
  };
  for (const Shape& s : {Shape{60, 12, 20}, Shape{140, 65, 200}}) {
    common::Rng data_rng(0xBEEF06);
    linalg::Matrix x;
    std::vector<double> y;
    ref::MakeRegressionData(s.n, s.d, &data_rng, &x, &y);
    RandomForestOptions options;
    options.num_trees = s.trees;

    ref::RandomForest seed_forest;
    RandomForest forest;
    {
      common::Rng rng(0xBEEF07);
      seed_forest.Fit(x, y, options, &rng);
    }
    {
      common::Rng rng(0xBEEF07);
      forest.Fit(x, y, options, &rng);
    }
    ASSERT_EQ(forest.feature_importance().size(), s.d);
    ASSERT_EQ(seed_forest.feature_importance().size(), s.d);
    for (size_t c = 0; c < s.d; ++c) {
      EXPECT_NEAR(forest.feature_importance()[c],
                  seed_forest.feature_importance()[c], 1e-9)
          << "importance " << c << ", " << s.trees << " trees";
    }
    for (size_t r = 0; r < 16; ++r) {
      EXPECT_NEAR(forest.Predict(x.Row(r)), seed_forest.Predict(x.Row(r)),
                  1e-9)
          << "row " << r << ", " << s.trees << " trees";
    }
  }
}

}  // namespace
}  // namespace hunter::ml
