// Determinism contract of the pool-parallel RandomForest::Fit: per-tree
// RNGs are forked up front in tree order, so the fitted forest must be
// bit-identical to the serial fit at every thread count (the same
// discipline the controller's FaultInjector follows). Runs under the
// `concurrency` ctest label so sanitizer configurations exercise it.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "ml/cart.h"
#include "ml/random_forest.h"

namespace hunter::ml {
namespace {

void MakeData(size_t n, size_t d, linalg::Matrix* x, std::vector<double>* y) {
  common::Rng rng(0xF0123);
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    double label = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double v = rng.Uniform(0.0, 1.0);
      x->At(r, c) = v;
      if (c < 3) label += (3.0 - static_cast<double>(c)) * v;
    }
    (*y)[r] = label + rng.Gaussian(0.0, 0.05);
  }
}

// Shaped like a real search-space refresh: every column quantized to
// `levels` values (the real pools repeat 26-33 distinct values per knob
// across thousands of rows), so every split scan walks runs of equal
// values and the presort's (value, row) tie order decides the summation
// order inside them.
void MakeTiedData(size_t n, size_t d, int levels, linalg::Matrix* x,
                  std::vector<double>* y) {
  common::Rng rng(0x7135);
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      x->At(r, c) = static_cast<double>(rng.UniformInt(0, levels - 1)) /
                    static_cast<double>(levels - 1);
    }
    (*y)[r] = 2.0 * x->At(r, 0) - x->At(r, 1) +
              0.5 * x->At(r, 2) * x->At(r, 3) + rng.Gaussian(0.0, 0.1);
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Fits `options` serially and on pools of width 1, 2, 3, 4, 8 and one wider
// than the tree count, all from the same RNG state, and requires every
// importance, the ranking and every prediction to match bit for bit.
void ExpectEveryPoolWidthMatchesSerial(const linalg::Matrix& x,
                                       const std::vector<double>& y,
                                       const RandomForestOptions& options,
                                       uint64_t seed) {
  RandomForest serial;
  {
    common::Rng rng(seed);
    serial.Fit(x, y, options, &rng);
  }
  for (const size_t threads :
       {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8},
        options.num_trees + 3}) {
    common::ThreadPool pool(threads);
    RandomForest parallel;
    common::Rng rng(seed);
    parallel.Fit(x, y, options, &rng, &pool);

    ASSERT_EQ(parallel.feature_importance().size(),
              serial.feature_importance().size());
    for (size_t c = 0; c < serial.feature_importance().size(); ++c) {
      EXPECT_EQ(Bits(parallel.feature_importance()[c]),
                Bits(serial.feature_importance()[c]))
          << "threads=" << threads << " feature=" << c;
    }
    EXPECT_EQ(parallel.RankFeatures(), serial.RankFeatures())
        << "threads=" << threads;
    for (size_t r = 0; r < x.rows(); r += 7) {
      const std::vector<double> row = x.Row(r);
      EXPECT_EQ(Bits(parallel.Predict(row)), Bits(serial.Predict(row)))
          << "threads=" << threads << " row=" << r;
    }
  }
}

RandomForestOptions SmallForest() {
  RandomForestOptions options;
  options.num_trees = 24;
  options.tree.max_depth = 6;
  return options;
}

TEST(ForestParallelTest, ParallelFitBitIdenticalToSerial) {
  linalg::Matrix x;
  std::vector<double> y;
  MakeData(80, 10, &x, &y);
  ExpectEveryPoolWidthMatchesSerial(x, y, SmallForest(), 99);
}

TEST(ForestParallelTest, TiedColumnsParallelFitBitIdenticalToSerial) {
  linalg::Matrix x;
  std::vector<double> y;
  MakeTiedData(240, 65, 30, &x, &y);
  RandomForestOptions options = SmallForest();
  options.tree.max_depth = 8;
  ExpectEveryPoolWidthMatchesSerial(x, y, options, 4242);
}

TEST(ForestParallelTest, SingleThreadPoolTakesSerialPath) {
  linalg::Matrix x;
  std::vector<double> y;
  MakeData(40, 6, &x, &y);

  RandomForest serial;
  {
    common::Rng rng(7);
    serial.Fit(x, y, SmallForest(), &rng);
  }
  common::ThreadPool pool(1);
  RandomForest pooled;
  common::Rng rng(7);
  pooled.Fit(x, y, SmallForest(), &rng, &pool);
  EXPECT_EQ(pooled.feature_importance(), serial.feature_importance());
}

TEST(ForestParallelTest, FitIndicesWithIdentityMatchesFit) {
  linalg::Matrix x;
  std::vector<double> y;
  MakeData(50, 8, &x, &y);
  std::vector<size_t> identity(x.rows());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;

  CartOptions options;
  options.max_depth = 6;
  options.max_features = 4;

  CartTree via_fit;
  CartTree via_indices;
  common::Rng rng_a(11);
  common::Rng rng_b(11);
  via_fit.Fit(x, y, options, &rng_a);
  via_indices.FitIndices(x, y, identity, options, &rng_b);

  EXPECT_EQ(via_fit.num_nodes(), via_indices.num_nodes());
  EXPECT_EQ(via_fit.feature_importance(), via_indices.feature_importance());
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> row = x.Row(r);
    EXPECT_DOUBLE_EQ(via_fit.Predict(row), via_indices.Predict(row));
  }
}

TEST(ForestParallelTest, BootstrapViewWithDuplicatesFits) {
  linalg::Matrix x;
  std::vector<double> y;
  MakeData(30, 5, &x, &y);
  // A heavily duplicated view must still produce a valid tree.
  std::vector<size_t> view;
  for (size_t i = 0; i < 60; ++i) view.push_back(i % 10);

  CartOptions options;
  options.max_depth = 4;
  CartTree tree;
  common::Rng rng(3);
  tree.FitIndices(x, y, view, options, &rng);
  EXPECT_GE(tree.num_nodes(), 1u);
  const double prediction = tree.Predict(x.Row(0));
  EXPECT_TRUE(std::isfinite(prediction));
}

}  // namespace
}  // namespace hunter::ml
