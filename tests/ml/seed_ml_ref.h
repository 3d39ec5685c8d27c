// Seed (pre-rewrite) reference implementations of the random forest and the
// Gaussian process, kept verbatim for tests only. They are independent
// formulas, not copies of a product path: forest_test.cc and gp_test.cc fit
// them and the production classes on the same data and require agreement
// to 1e-9.

#ifndef HUNTER_TESTS_ML_SEED_ML_REF_H_
#define HUNTER_TESTS_ML_SEED_ML_REF_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/cart.h"
#include "ml/gaussian_process.h"
#include "ml/random_forest.h"

namespace hunter::ml::ref {

struct SplitStats {
  double sum = 0.0, sum_sq = 0.0;
  size_t count = 0;
  void Add(double y) { sum += y; sum_sq += y * y; ++count; }
  void Remove(double y) { sum -= y; sum_sq -= y * y; --count; }
  double SumSquaredError() const {
    return count == 0 ? 0.0 : sum_sq - sum * sum / static_cast<double>(count);
  }
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// The seed CartTree: per-(node, feature) pair sorts over an index
// partition, fit on a materialized bootstrap copy of the design matrix.
class CartTree {
 public:
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const hunter::ml::CartOptions& options, common::Rng* rng) {
    nodes_.clear();
    importance_.assign(x.cols(), 0.0);
    std::vector<size_t> indices(x.rows());
    std::iota(indices.begin(), indices.end(), 0);
    if (!indices.empty()) {
      BuildNode(x, y, indices, 0, indices.size(), 0, options, rng);
    }
  }

  double Predict(const std::vector<double>& row) const {
    if (nodes_.empty()) return 0.0;
    int node = 0;
    while (!nodes_[static_cast<size_t>(node)].is_leaf) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
    return nodes_[static_cast<size_t>(node)].value;
  }

  const std::vector<double>& feature_importance() const { return importance_; }

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;
    size_t feature = 0;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
  };

  int BuildNode(const linalg::Matrix& x, const std::vector<double>& y,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth, const hunter::ml::CartOptions& options,
                common::Rng* rng) {
    const size_t count = end - begin;
    SplitStats node_stats;
    for (size_t i = begin; i < end; ++i) node_stats.Add(y[indices[i]]);

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].value = node_stats.Mean();

    const double node_sse = node_stats.SumSquaredError();
    if (depth >= options.max_depth || count < 2 * options.min_samples_leaf ||
        node_sse < 1e-12) {
      return node_id;
    }

    std::vector<size_t> features(x.cols());
    std::iota(features.begin(), features.end(), 0);
    const size_t feature_budget =
        options.max_features == 0 ? x.cols()
                                  : std::min(options.max_features, x.cols());
    if (feature_budget < x.cols()) rng->Shuffle(&features);
    features.resize(feature_budget);

    double best_gain = 1e-12;
    size_t best_feature = 0;
    double best_threshold = 0.0;

    std::vector<std::pair<double, double>> column(count);
    for (size_t feature : features) {
      for (size_t i = 0; i < count; ++i) {
        const size_t row = indices[begin + i];
        column[i] = {x.At(row, feature), y[row]};
      }
      std::sort(column.begin(), column.end());

      SplitStats left;
      SplitStats right = node_stats;
      for (size_t i = 0; i + 1 < count; ++i) {
        left.Add(column[i].second);
        right.Remove(column[i].second);
        if (column[i].first == column[i + 1].first) continue;
        if (left.count < options.min_samples_leaf ||
            right.count < options.min_samples_leaf) {
          continue;
        }
        const double gain =
            node_sse - left.SumSquaredError() - right.SumSquaredError();
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
        }
      }
    }

    if (best_gain <= 1e-12) return node_id;

    const auto middle = std::stable_partition(
        indices.begin() + static_cast<long>(begin),
        indices.begin() + static_cast<long>(end), [&](size_t row) {
          return x.At(row, best_feature) <= best_threshold;
        });
    const size_t split = static_cast<size_t>(middle - indices.begin());
    if (split == begin || split == end) return node_id;

    importance_[best_feature] += best_gain;

    nodes_[node_id].is_leaf = false;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    nodes_[node_id].left =
        BuildNode(x, y, indices, begin, split, depth + 1, options, rng);
    nodes_[node_id].right =
        BuildNode(x, y, indices, split, end, depth + 1, options, rng);
    return node_id;
  }

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

// The seed RandomForest::Fit loop (bootstrap copy per tree, serial), with
// per-tree forked RNGs so it fits each tree on exactly the same bootstrap
// sample and feature draws as the rewritten RandomForest.
class RandomForest {
 public:
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const hunter::ml::RandomForestOptions& options, common::Rng* rng) {
    trees_.assign(options.num_trees, CartTree());
    importance_.assign(x.cols(), 0.0);

    hunter::ml::CartOptions tree_options = options.tree;
    if (tree_options.max_features == 0) {
      tree_options.max_features = static_cast<size_t>(std::ceil(
          options.feature_fraction * static_cast<double>(x.cols())));
      tree_options.max_features =
          std::max<size_t>(1, tree_options.max_features);
    }

    const size_t n = x.rows();
    std::vector<size_t> bootstrap(n);
    linalg::Matrix sample_x(n, x.cols());
    std::vector<double> sample_y(n);
    for (auto& tree : trees_) {
      common::Rng tree_rng = rng->Fork();
      for (size_t i = 0; i < n; ++i) {
        bootstrap[i] = static_cast<size_t>(
            tree_rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < x.cols(); ++c) {
          sample_x.At(i, c) = x.At(bootstrap[i], c);
        }
        sample_y[i] = y[bootstrap[i]];
      }
      tree.Fit(sample_x, sample_y, tree_options, &tree_rng);
      const std::vector<double>& tree_importance = tree.feature_importance();
      for (size_t c = 0; c < importance_.size(); ++c) {
        importance_[c] += tree_importance[c];
      }
    }

    double total = 0.0;
    for (double v : importance_) total += v;
    if (total > 0.0) {
      for (double& v : importance_) v /= total;
    }
  }

  double Predict(const std::vector<double>& row) const {
    if (trees_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& tree : trees_) sum += tree.Predict(row);
    return sum / static_cast<double>(trees_.size());
  }

  const std::vector<double>& feature_importance() const { return importance_; }

 private:
  std::vector<CartTree> trees_;
  std::vector<double> importance_;
};

// The seed GaussianProcess, kept verbatim: allocating per-row kernel loops,
// a full O(n^3) refactorization on every Fit, and the two-pass
// (forward + back substitution) variance in Predict. The production GP must
// match its predictions to 1e-9 and its EI scores bit-for-near-bit.
class SeedGp {
 public:
  explicit SeedGp(hunter::ml::GpOptions options = {}) : options_(options) {}

  bool Fit(const linalg::Matrix& x, const std::vector<double>& y) {
    train_x_ = x;
    train_y_ = y;
    const size_t n = x.rows();
    y_mean_ = 0.0;
    for (double v : y) y_mean_ += v;
    if (n > 0) y_mean_ /= static_cast<double>(n);

    linalg::Matrix k(n, n);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> xi = x.Row(i);
      for (size_t j = i; j < n; ++j) {
        const double value = Kernel(xi, x.Row(j));
        k.At(i, j) = value;
        k.At(j, i) = value;
      }
      k.At(i, i) += options_.noise_variance;
    }
    if (!hunter::linalg::Cholesky(k, &chol_)) {
      fitted_ = false;
      return false;
    }
    std::vector<double> centered(n);
    for (size_t i = 0; i < n; ++i) centered[i] = y[i] - y_mean_;
    alpha_ = hunter::linalg::CholeskySolve(chol_, centered);
    fitted_ = true;
    return true;
  }

  hunter::ml::GaussianProcess::Prediction Predict(
      const std::vector<double>& x) const {
    hunter::ml::GaussianProcess::Prediction prediction;
    if (!fitted_) {
      prediction.variance = options_.signal_variance;
      return prediction;
    }
    const size_t n = train_x_.rows();
    std::vector<double> k_star(n);
    for (size_t i = 0; i < n; ++i) k_star[i] = Kernel(x, train_x_.Row(i));

    double mean = y_mean_;
    for (size_t i = 0; i < n; ++i) mean += k_star[i] * alpha_[i];
    prediction.mean = mean;

    const std::vector<double> v = hunter::linalg::CholeskySolve(chol_, k_star);
    double reduction = 0.0;
    for (size_t i = 0; i < n; ++i) reduction += k_star[i] * v[i];
    prediction.variance = std::max(0.0, Kernel(x, x) - reduction);
    return prediction;
  }

  double ExpectedImprovement(const std::vector<double>& x,
                             double best_so_far) const {
    const auto p = Predict(x);
    const double sigma = std::sqrt(p.variance);
    if (sigma < 1e-12) return std::max(0.0, p.mean - best_so_far);
    const double z = (p.mean - best_so_far) / sigma;
    return (p.mean - best_so_far) * NormalCdf(z) + sigma * NormalPdf(z);
  }

 private:
  static double NormalPdf(double z) {
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
  }
  static double NormalCdf(double z) {
    return 0.5 * std::erfc(-z / 1.41421356237309504880);
  }

  double Kernel(const std::vector<double>& a,
                const std::vector<double>& b) const {
    double sq = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      sq += d * d;
    }
    const double ls = options_.length_scale * options_.length_scale;
    return options_.signal_variance * std::exp(-0.5 * sq / ls);
  }

  hunter::ml::GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;
  std::vector<double> train_y_;
  double y_mean_ = 0.0;
  linalg::Matrix chol_;
  std::vector<double> alpha_;
};

// The knob-style regression data the gates fit: continuous features in
// [0, 1), a response linear in the first five of them, plus noise.
inline void MakeRegressionData(size_t n, size_t d, common::Rng* rng,
                               linalg::Matrix* x, std::vector<double>* y) {
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    double label = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double v = rng->Uniform(0.0, 1.0);
      x->At(r, c) = v;
      if (c < 5) label += (5.0 - static_cast<double>(c)) * v;
    }
    (*y)[r] = label + rng->Gaussian(0.0, 0.1);
  }
}

}  // namespace hunter::ml::ref

#endif  // HUNTER_TESTS_ML_SEED_ML_REF_H_
