// Perf-regression harness for the ML hot paths (GEMM, random forest, GP,
// PCA) and the engine-evaluation fast path. For each hot path it times an
// independent seed implementation (the `ref` baselines below, or
// tests/cdb/seed_engine_ref.h for the engine) against the rewrite, asserts
// the two agree (ML paths within 1e-12 to 1e-8; the engine fast path — flat
// intrusive LRU, cached Zipf samplers, bit-exact early-exit fixed point —
// bit for bit at tolerance 0.0), and writes machine-readable
// BENCH_hotpaths.json. The *_simd benchmarks additionally time the
// dispatched vector kernels (linalg/simd/) against the scalar tier of the
// same entry points and gate bit identity at tolerance 0.0; every record
// names the ISA tier it dispatched at ("scalar" / "avx2+fma"). DDPG/MLP
// training has no row here: its one path is pinned by golden digests in
// tests/ml/ and timed end to end by bench/e2e (hunter.recommend_s).
//
// Usage: bench_micro_hotpaths [--smoke | --mode=smoke|full] [--out PATH]
//   --smoke  tiny sizes, few iterations — run by ctest under the `perf`
//            label so every build exercises the equivalence asserts.
//            (`--mode=smoke` is an alias; `--mode=full` the default.)
//   --out    JSON output path (default BENCH_hotpaths.json).
//
// Parallel benchmarks record both std::thread::hardware_concurrency() and
// the actual pool width used; HUNTER_BENCH_THREADS overrides the width.
//
// In full mode every timing is the minimum of several repetitions (see
// g_time_reps) so the reported speedups survive scheduler noise.
//
// Exit code is non-zero if any equivalence check fails, so a speedup can
// never silently change results.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <locale>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cdb/buffer_pool.h"
#include "cdb/instance_type.h"
#include "cdb/knob_catalog.h"
#include "cdb/simulated_engine.h"
#include "cdb/workload_profile.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/text.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "linalg/simd/simd.h"
#include "ml/cart.h"
#include "ml/gaussian_process.h"
#include "ml/mlp.h"
#include "ml/pca.h"
#include "ml/random_forest.h"
#include "tests/cdb/seed_engine_ref.h"
#include "workload/workloads.h"

namespace {

using hunter::common::Rng;
using hunter::common::ThreadPool;
using hunter::linalg::Matrix;

// ---------------------------------------------------------------------------
// Timing + reporting plumbing.

// Repetition count for TimeMs (set from main; 1 in smoke mode). Each
// measurement repeats the whole iters-loop this many times and reports the
// minimum mean: on a shared box single runs swing by tens of percent from
// scheduler noise, and the minimum is the usual robust estimator of the
// undisturbed cost. It is applied to baseline and optimized runs alike.
int g_time_reps = 1;

// Pool width for parallel benchmarks (HUNTER_BENCH_THREADS overrides; set
// from main). Recorded per benchmark in the JSON next to
// hardware_concurrency so a reported speedup names the width it ran at.
size_t g_pool_threads = 4;

double TimeMs(const std::function<void()>& fn, int iters) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < g_time_reps; ++rep) {
    // hunterlint: allow(no-wall-clock) perf harness measures real host time
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    // hunterlint: allow(no-wall-clock) perf harness measures real host time
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(iters);
    best = std::min(best, ms);
  }
  return best;
}

struct BenchResult {
  std::string name;
  std::string config;
  double baseline_ms = 0.0;
  double optimized_ms = 0.0;
  size_t pool_threads = 0;  // 0 = single-threaded benchmark
  // ISA tier the optimized run dispatched at ("scalar" / "avx2+fma"),
  // captured at record time so a report from a non-AVX2 host (or a
  // HUNTER_FORCE_SCALAR run) is self-describing.
  std::string simd_tier;
  double Speedup() const {
    return optimized_ms > 0.0 ? baseline_ms / optimized_ms : 0.0;
  }
};

struct EquivResult {
  std::string name;
  double max_abs_diff = 0.0;
  double tolerance = 0.0;
  bool Pass() const { return max_abs_diff <= tolerance; }
};

std::vector<BenchResult> g_benches;
std::vector<EquivResult> g_equivs;

void RecordBench(const std::string& name, const std::string& config,
                 double baseline_ms, double optimized_ms,
                 size_t pool_threads = 0) {
  g_benches.push_back({name, config, baseline_ms, optimized_ms, pool_threads,
                       hunter::linalg::simd::ActiveTierName()});
  std::printf("%-18s baseline %9.3f ms  optimized %9.3f ms  speedup %5.2fx\n",
              name.c_str(), baseline_ms, optimized_ms,
              g_benches.back().Speedup());
}

void RecordEquiv(const std::string& name, double max_abs_diff,
                 double tolerance) {
  g_equivs.push_back({name, max_abs_diff, tolerance});
  std::printf("%-34s max |diff| %.3e  (tol %.0e)  %s\n", name.c_str(),
              max_abs_diff, tolerance,
              g_equivs.back().Pass() ? "OK" : "FAIL");
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// ---------------------------------------------------------------------------
// Seed (pre-rewrite) reference implementations, kept verbatim as baselines.

namespace ref {

// The seed Matrix::Multiply: naive j-k inner loops with the sparse-skip
// branch, allocating a fresh result per call.
Matrix NaiveMultiply(const Matrix& lhs, const Matrix& rhs) {
  Matrix result(lhs.rows(), rhs.cols());
  for (size_t r = 0; r < lhs.rows(); ++r) {
    for (size_t k = 0; k < lhs.cols(); ++k) {
      const double a = lhs.At(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < rhs.cols(); ++c) {
        result.At(r, c) += a * rhs.At(k, c);
      }
    }
  }
  return result;
}

// Naive covariance (triple loop over the centered data, as the seed did),
// with the post-PR sample (N-1) denominator so only the implementation —
// not the statistic — differs from linalg::Covariance.
Matrix NaiveCovariance(const Matrix& data) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix cov(d, d);
  if (n < 2) return cov;
  const std::vector<double> means = hunter::linalg::ColumnMeans(data);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      double sum = 0.0;
      for (size_t r = 0; r < n; ++r) {
        sum += (data.At(r, a) - means[a]) * (data.At(r, b) - means[b]);
      }
      cov.At(a, b) = sum / static_cast<double>(n - 1);
    }
  }
  return cov;
}

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
  void Fit(const Matrix& x, const std::vector<double>& y,
           const hunter::ml::CartOptions& options, Rng* rng) {
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

  int BuildNode(const Matrix& x, const std::vector<double>& y,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth, const hunter::ml::CartOptions& options, Rng* rng) {
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
  void Fit(const Matrix& x, const std::vector<double>& y,
           const hunter::ml::RandomForestOptions& options, Rng* rng) {
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
    Matrix sample_x(n, x.cols());
    std::vector<double> sample_y(n);
    for (auto& tree : trees_) {
      Rng tree_rng = rng->Fork();
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

  bool Fit(const Matrix& x, const std::vector<double>& y) {
    train_x_ = x;
    train_y_ = y;
    const size_t n = x.rows();
    y_mean_ = 0.0;
    for (double v : y) y_mean_ += v;
    if (n > 0) y_mean_ /= static_cast<double>(n);

    Matrix k(n, n);
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
  Matrix train_x_;
  std::vector<double> train_y_;
  double y_mean_ = 0.0;
  Matrix chol_;
  std::vector<double> alpha_;
};

}  // namespace ref

// ---------------------------------------------------------------------------
// Shared test-data helpers.

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m.At(r, c) = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

// Knob-style regression data: continuous features, smooth-ish response.
void MakeRegressionData(size_t n, size_t d, Rng* rng, Matrix* x,
                        std::vector<double>* y) {
  *x = Matrix(n, d);
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

// ---------------------------------------------------------------------------
// Benchmarks.

void BenchGemm(bool smoke) {
  const size_t n = smoke ? 16 : 128;
  const int iters = smoke ? 3 : 20;
  Rng rng(0xBEEF01);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);

  const Matrix naive = ref::NaiveMultiply(a, b);
  Matrix out;
  a.MultiplyInto(b, &out);
  double max_diff = 0.0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      max_diff = std::max(max_diff, std::abs(naive.At(r, c) - out.At(r, c)));
    }
  }
  RecordEquiv("gemm_into_vs_naive", max_diff, 1e-12);

  double sink = 0.0;
  const double baseline_ms = TimeMs(
      [&] {
        const Matrix c = ref::NaiveMultiply(a, b);
        sink += c.At(0, 0);
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        a.MultiplyInto(b, &out);
        sink += out.At(0, 0);
      },
      iters);
  if (sink == 42.0) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("gemm", std::to_string(n) + "x" + std::to_string(n) + "x" +
                          std::to_string(n),
              baseline_ms, optimized_ms);
}

void BenchForest(bool smoke) {
  const size_t n = smoke ? 60 : 140;
  const size_t d = smoke ? 12 : 65;
  const size_t pool_threads = g_pool_threads;
  hunter::ml::RandomForestOptions options;
  options.num_trees = smoke ? 20 : 200;
  const int iters = smoke ? 1 : 3;

  Rng data_rng(0xBEEF06);
  Matrix x;
  std::vector<double> y;
  MakeRegressionData(n, d, &data_rng, &x, &y);

  // Reference (seed) forest vs. the rewrite, serial, from the same RNG
  // state: importances and spot predictions must agree.
  ref::RandomForest ref_forest;
  hunter::ml::RandomForest new_serial;
  {
    Rng rng(0xBEEF07);
    ref_forest.Fit(x, y, options, &rng);
  }
  {
    Rng rng(0xBEEF07);
    new_serial.Fit(x, y, options, &rng);
  }
  double diff = MaxAbsDiff(ref_forest.feature_importance(),
                           new_serial.feature_importance());
  for (size_t r = 0; r < std::min<size_t>(16, n); ++r) {
    const std::vector<double> row = x.Row(r);
    diff = std::max(diff,
                    std::abs(ref_forest.Predict(row) - new_serial.Predict(row)));
  }
  RecordEquiv("rf_new_vs_reference", diff, 1e-9);

  // Parallel fit must be bit-identical to serial, at several pool widths.
  double parallel_diff = 0.0;
  for (const size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    hunter::ml::RandomForest new_parallel;
    Rng rng(0xBEEF07);
    new_parallel.Fit(x, y, options, &rng, &pool);
    for (size_t c = 0; c < d; ++c) {
      const double delta = new_parallel.feature_importance()[c] -
                           new_serial.feature_importance()[c];
      parallel_diff = std::max(parallel_diff, std::abs(delta));
    }
    for (size_t r = 0; r < std::min<size_t>(16, n); ++r) {
      const std::vector<double> row = x.Row(r);
      parallel_diff =
          std::max(parallel_diff,
                   std::abs(new_parallel.Predict(row) - new_serial.Predict(row)));
    }
  }
  RecordEquiv("rf_parallel_bitidentical_serial", parallel_diff, 0.0);

  const double baseline_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF07);
        ref::RandomForest forest;
        forest.Fit(x, y, options, &rng);
      },
      iters);
  const double serial_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF07);
        hunter::ml::RandomForest forest;
        forest.Fit(x, y, options, &rng);
      },
      iters);
  ThreadPool pool(pool_threads);
  const double optimized_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF07);
        hunter::ml::RandomForest forest;
        forest.Fit(x, y, options, &rng, &pool);
      },
      iters);
  RecordBench("rf_fit_serial",
              std::to_string(options.num_trees) + " trees, n=" +
                  std::to_string(n) + ", d=" + std::to_string(d),
              baseline_ms, serial_ms);
  RecordBench("rf_fit",
              std::to_string(options.num_trees) + " trees, n=" +
                  std::to_string(n) + ", d=" + std::to_string(d) + ", pool=" +
                  std::to_string(pool.num_threads()),
              baseline_ms, optimized_ms, pool.num_threads());
}

void BenchGpFit(bool smoke) {
  // The BO tuners' window fill: one new observation per Observe, one Fit
  // per observation over the growing sample window. Both paths refactorize
  // per step; the production GP builds its kernel from one Gram GEMM.
  const size_t n = smoke ? 24 : 120;
  const size_t d = smoke ? 8 : 48;
  const size_t n0 = 4;  // observations fitted before the growth loop
  const int iters = smoke ? 1 : 3;
  Rng data_rng(0xBEEF09);
  Matrix x;
  std::vector<double> y;
  MakeRegressionData(n, d, &data_rng, &x, &y);

  // Both paths rebuild the prefix matrix per step, exactly like the tuners
  // rebuild their window matrix per Observe; only Fit's cost differs.
  auto prefix_x = [&](size_t m) {
    Matrix p(m, d);
    for (size_t r = 0; r < m; ++r) {
      for (size_t c = 0; c < d; ++c) p.At(r, c) = x.At(r, c);
    }
    return p;
  };
  auto prefix_y = [&](size_t m) {
    return std::vector<double>(y.begin(), y.begin() + static_cast<long>(m));
  };

  // Equivalence: run the growth loop once on each path and compare the
  // final posteriors at random probes.
  ref::SeedGp seed_gp;
  hunter::ml::GaussianProcess gp;
  for (size_t m = n0; m <= n; ++m) {
    seed_gp.Fit(prefix_x(m), prefix_y(m));
    gp.Fit(prefix_x(m), prefix_y(m));
  }
  Rng probe_rng(0xBEEF10);
  Matrix probes(16, d);
  for (size_t p = 0; p < probes.rows(); ++p) {
    for (size_t c = 0; c < d; ++c) {
      probes.At(p, c) = probe_rng.Uniform(0.0, 1.0);
    }
  }
  std::vector<hunter::ml::GaussianProcess::Prediction> preds;
  gp.PredictBatch(probes, &preds);
  std::vector<double> scores;
  gp.ExpectedImprovementBatch(probes, 0.5, &scores);
  double diff = 0.0;
  for (size_t p = 0; p < probes.rows(); ++p) {
    const std::vector<double> probe = probes.Row(p);
    const auto seed_pred = seed_gp.Predict(probe);
    diff = std::max(diff, std::abs(seed_pred.mean - preds[p].mean));
    diff = std::max(diff, std::abs(seed_pred.variance - preds[p].variance));
    diff = std::max(diff, std::abs(seed_gp.ExpectedImprovement(probe, 0.5) -
                                   scores[p]));
  }
  RecordEquiv("gp_fit_vs_seed", diff, 1e-9);

  const double baseline_ms = TimeMs(
      [&] {
        ref::SeedGp timed;
        for (size_t m = n0; m <= n; ++m) timed.Fit(prefix_x(m), prefix_y(m));
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        hunter::ml::GaussianProcess timed;
        for (size_t m = n0; m <= n; ++m) timed.Fit(prefix_x(m), prefix_y(m));
      },
      iters);
  RecordBench("gp_fit",
              "grow " + std::to_string(n0) + "->" + std::to_string(n) +
                  " obs, d=" + std::to_string(d),
              baseline_ms, optimized_ms);
}

void BenchGpEiBatch(bool smoke) {
  // One Propose in OtterTune/ResTune scores every candidate with EI; the
  // baseline is the seed's per-candidate Predict (two substitution passes
  // and an allocating kernel row each), the optimized path one GEMM-backed
  // ExpectedImprovementBatch call. Full mode is OtterTune's shape on the
  // 65-knob MySQL catalog.
  const size_t n = smoke ? 24 : 120;
  const size_t d = smoke ? 8 : 65;
  const size_t candidates = smoke ? 20 : 200;
  const int iters = smoke ? 2 : 20;
  Rng data_rng(0xBEEF11);
  Matrix x;
  std::vector<double> y;
  MakeRegressionData(n, d, &data_rng, &x, &y);

  ref::SeedGp seed_gp;
  hunter::ml::GaussianProcess gp;
  seed_gp.Fit(x, y);
  gp.Fit(x, y);
  const double best = *std::max_element(y.begin(), y.end());

  const Matrix cand = RandomMatrix(candidates, d, &data_rng);
  // The seed tuner held each candidate as a vector — prebuild those so the
  // baseline times the seed's scoring work, not row extraction.
  std::vector<std::vector<double>> cand_rows(candidates);
  for (size_t c = 0; c < candidates; ++c) cand_rows[c] = cand.Row(c);

  std::vector<double> seed_scores(candidates);
  for (size_t c = 0; c < candidates; ++c) {
    seed_scores[c] = seed_gp.ExpectedImprovement(cand_rows[c], best);
  }
  std::vector<double> batch_scores;
  gp.ExpectedImprovementBatch(cand, best, &batch_scores);
  RecordEquiv("gp_ei_batch_vs_seed", MaxAbsDiff(seed_scores, batch_scores),
              1e-9);

  double sink = 0.0;
  const double baseline_ms = TimeMs(
      [&] {
        for (size_t c = 0; c < candidates; ++c) {
          sink += seed_gp.ExpectedImprovement(cand_rows[c], best);
        }
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        gp.ExpectedImprovementBatch(cand, best, &batch_scores);
        sink += batch_scores[0];
      },
      iters);
  if (sink == 42.0) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("gp_ei_batch",
              std::to_string(candidates) + " candidates, n=" +
                  std::to_string(n) + ", d=" + std::to_string(d),
              baseline_ms, optimized_ms);
}

void BenchZipfDraw(bool smoke) {
  // The engine alternates between two Zipf distributions every Run (page
  // draws, then lock-row draws). The seed kept ONE constants cache per Rng,
  // so each switch recomputed the zeta sums, and the rank mapping paid a
  // std::pow(0.5, theta) on every draw. The fast path keeps per-purpose
  // ZipfTables with the pow hoisted into the cached constants.
  const int iters = smoke ? 2 : 10;
  const size_t blocks = smoke ? 16 : 64;
  const size_t block_draws = 64;
  const uint64_t n_pages = 4593;        // TPC-C page space
  const double theta_pages = 0.9;
  const uint64_t n_rows = 1u << 20;     // lock-table hot rows
  const double theta_rows = 0.75;

  // Equivalence: draw-for-draw bit identity across the alternation, and an
  // identical post-stream RNG position.
  double max_diff = 0.0;
  {
    Rng seed_rng(0xBEEF21);
    Rng fast_rng(0xBEEF21);
    hunter::seedref::SeedZipfState state;
    hunter::common::ZipfTable pages_table(n_pages, theta_pages);
    hunter::common::ZipfTable rows_table(n_rows, theta_rows);
    for (size_t b = 0; b < blocks; ++b) {
      const bool page_block = b % 2 == 0;
      const uint64_t n = page_block ? n_pages : n_rows;
      const double theta = page_block ? theta_pages : theta_rows;
      hunter::common::ZipfTable& table = page_block ? pages_table : rows_table;
      for (size_t i = 0; i < block_draws; ++i) {
        const uint64_t want =
            hunter::seedref::SeedZipf(&state, &seed_rng, n, theta);
        const uint64_t got = table.Sample(&fast_rng);
        max_diff = std::max(max_diff,
                            std::abs(static_cast<double>(want) -
                                     static_cast<double>(got)));
      }
    }
    if (seed_rng.NextU64() != fast_rng.NextU64()) {
      max_diff = std::numeric_limits<double>::infinity();
    }
  }
  RecordEquiv("zipf_stream_vs_seed", max_diff, 0.0);

  uint64_t sink = 0;
  const double baseline_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF22);
        hunter::seedref::SeedZipfState state;
        for (size_t b = 0; b < blocks; ++b) {
          const bool page_block = b % 2 == 0;
          const uint64_t n = page_block ? n_pages : n_rows;
          const double theta = page_block ? theta_pages : theta_rows;
          for (size_t i = 0; i < block_draws; ++i) {
            sink += hunter::seedref::SeedZipf(&state, &rng, n, theta);
          }
        }
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF22);
        hunter::common::ZipfTable pages_table(n_pages, theta_pages);
        hunter::common::ZipfTable rows_table(n_rows, theta_rows);
        for (size_t b = 0; b < blocks; ++b) {
          hunter::common::ZipfTable& table =
              b % 2 == 0 ? pages_table : rows_table;
          for (size_t i = 0; i < block_draws; ++i) sink += table.Sample(&rng);
        }
      },
      iters);
  if (sink == 42) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("zipf_draw",
              std::to_string(blocks) + " alternating blocks x " +
                  std::to_string(block_draws) + " draws",
              baseline_ms, optimized_ms);
}

void BenchBufferPoolReplay(bool smoke) {
  // The engine's measured window: a pre-drawn Zipf access stream replayed
  // through the pool with periodic budgeted background flushing. Baseline
  // is the seed std::list + std::unordered_map pool constructed per replay;
  // the fast path re-arms one page-id-indexed pool via Reset().
  const int iters = smoke ? 2 : 10;
  const uint64_t capacity = 1024;
  const uint64_t page_space = 8192;
  const size_t accesses = smoke ? 20000 : 100000;

  std::vector<uint64_t> pages(accesses);
  std::vector<uint8_t> is_write(accesses);
  {
    Rng rng(0xBEEF23);
    hunter::common::ZipfTable table(page_space, 0.9);
    for (size_t i = 0; i < accesses; ++i) {
      pages[i] = table.Sample(&rng);
      is_write[i] = rng.Bernoulli(0.35) ? 1 : 0;
    }
  }
  auto replay = [&](auto* pool) {
    for (size_t i = 0; i < accesses; ++i) {
      pool->Access(pages[i], is_write[i] != 0);
      if ((i & 255) == 0) pool->FlushDirty(4);
    }
  };

  // Equivalence: the full counter state after the replay (hit/miss/evict/
  // flush trajectories are pinned access-by-access in the gtest suite).
  {
    hunter::seedref::SeedBufferPool seed_pool(capacity);
    hunter::cdb::BufferPool fast_pool(capacity, page_space);
    replay(&seed_pool);
    replay(&fast_pool);
    const std::vector<double> want = {
        static_cast<double>(seed_pool.hits()),
        static_cast<double>(seed_pool.misses()),
        static_cast<double>(seed_pool.dirty_evictions()),
        static_cast<double>(seed_pool.dirty_pages()),
        static_cast<double>(seed_pool.resident_pages())};
    const std::vector<double> got = {
        static_cast<double>(fast_pool.hits()),
        static_cast<double>(fast_pool.misses()),
        static_cast<double>(fast_pool.dirty_evictions()),
        static_cast<double>(fast_pool.dirty_pages()),
        static_cast<double>(fast_pool.resident_pages())};
    RecordEquiv("bufferpool_replay_vs_seed", MaxAbsDiff(want, got), 0.0);
  }

  uint64_t sink = 0;
  const double baseline_ms = TimeMs(
      [&] {
        hunter::seedref::SeedBufferPool pool(capacity);
        replay(&pool);
        sink += pool.hits();
      },
      iters);
  hunter::cdb::BufferPool reused_pool(capacity, page_space);
  const double optimized_ms = TimeMs(
      [&] {
        reused_pool.Reset(capacity, page_space);
        replay(&reused_pool);
        sink += reused_pool.hits();
      },
      iters);
  if (sink == 42) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("bufferpool_replay",
              std::to_string(accesses) + " accesses, capacity " +
                  std::to_string(capacity),
              baseline_ms, optimized_ms);
}

void BenchEngineEvalCold(bool smoke) {
  // Whole cold stress tests: the seed engine (fresh list+map pool per run,
  // shared Zipf cache thrashing between page and lock draws, epsilon-only
  // fixed point) against the production fast path. The ISSUE acceptance
  // gate: >= 2x on this benchmark with bit-exact outputs.
  const int iters = smoke ? 1 : 5;
  const int evals = smoke ? 2 : 8;
  const hunter::cdb::KnobCatalog catalog = hunter::cdb::MySqlCatalog();
  const hunter::cdb::WorkloadProfile tpcc = hunter::workload::Tpcc();
  const hunter::cdb::WorkloadProfile sbrw =
      hunter::workload::SysbenchReadWrite();
  hunter::seedref::SeedEngine seed_engine(
      &catalog, hunter::cdb::MySqlEvaluationInstance(),
      hunter::cdb::MySqlEngineTuning());
  hunter::cdb::SimulatedEngine engine(&catalog,
                                      hunter::cdb::MySqlEvaluationInstance(),
                                      hunter::cdb::MySqlEngineTuning());

  // Evaluation mix: defaults plus random configurations, alternating
  // workloads and warmth — the shape of a tuner's exploration stream.
  std::vector<hunter::cdb::Configuration> configs;
  configs.push_back(catalog.DefaultConfiguration());
  {
    Rng config_rng(0xBEEF24);
    for (int i = 0; i < 3; ++i) {
      std::vector<double> normalized(catalog.size());
      for (double& v : normalized) v = config_rng.Uniform();
      configs.push_back(catalog.DenormalizeConfiguration(normalized));
    }
  }
  auto run_all = [&](auto* eng, Rng* rng, std::vector<double>* out) {
    for (int i = 0; i < evals; ++i) {
      const hunter::cdb::PerfResult r =
          eng->Run(configs[static_cast<size_t>(i) % configs.size()],
                   i % 2 == 0 ? tpcc : sbrw, /*warm_start=*/false, rng);
      if (out != nullptr) {
        out->push_back(r.throughput_tps);
        out->push_back(r.latency_p95_ms);
        out->push_back(r.latency_p99_ms);
        out->insert(out->end(), r.latents.begin(), r.latents.end());
        out->insert(out->end(), r.metrics.begin(), r.metrics.end());
      }
    }
  };

  // Equivalence: results and the post-stream RNG position, tolerance 0.0.
  {
    Rng seed_rng(0xBEEF25);
    Rng fast_rng(0xBEEF25);
    std::vector<double> want, got;
    run_all(&seed_engine, &seed_rng, &want);
    run_all(&engine, &fast_rng, &got);
    RecordEquiv("engine_cold_vs_seed", MaxAbsDiff(want, got), 0.0);
    RecordEquiv(
        "engine_cold_rng_stream",
        seed_rng.StateFingerprint() == fast_rng.StateFingerprint() ? 0.0 : 1.0,
        0.0);
  }

  const double baseline_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF26);
        run_all(&seed_engine, &rng, nullptr);
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        Rng rng(0xBEEF26);
        run_all(&engine, &rng, nullptr);
      },
      iters);
  RecordBench("engine_eval_cold",
              std::to_string(evals) + " stress tests (TPC-C/SbRW mix)",
              baseline_ms, optimized_ms);
}

void BenchPca(bool smoke) {
  const size_t n = smoke ? 40 : 140;
  const size_t d = smoke ? 12 : 63;
  const int iters = smoke ? 2 : 10;
  Rng rng(0xBEEF08);
  const Matrix data = RandomMatrix(n, d, &rng);

  // Equivalence target: the covariance reformulation (the eigensolver is
  // shared, so comparing covariance inputs pins the whole fit).
  const Matrix standardized = hunter::linalg::Standardize(data, true);
  const Matrix naive_cov = ref::NaiveCovariance(standardized);
  const Matrix gemm_cov = hunter::linalg::Covariance(standardized);
  double cov_diff = 0.0;
  for (size_t r = 0; r < d; ++r) {
    for (size_t c = 0; c < d; ++c) {
      cov_diff = std::max(cov_diff,
                          std::abs(naive_cov.At(r, c) - gemm_cov.At(r, c)));
    }
  }
  RecordEquiv("pca_covariance_gemm_vs_naive", cov_diff, 1e-9);

  // The eigensolvers: the production Householder-tridiagonalize + QL path
  // must agree with the retained cyclic-Jacobi oracle (eigenvalues exactly
  // comparable; eigenvectors are sign-ambiguous, so compare the spectrum
  // and reconstruction instead — the gtest suite covers vectors).
  {
    const auto jacobi = hunter::linalg::SymmetricEigenJacobi(gemm_cov);
    const auto ql = hunter::linalg::SymmetricEigen(gemm_cov);
    RecordEquiv("pca_ql_vs_jacobi_eigenvalues",
                MaxAbsDiff(jacobi.eigenvalues, ql.eigenvalues), 1e-8);
  }

  // The covariance reformulation itself, then the whole fit. The baseline
  // is the seed pipeline end to end: naive covariance into the seed's
  // cyclic-Jacobi eigensolver (retained as SymmetricEigenJacobi).
  const double cov_baseline_ms = TimeMs(
      [&] {
        const Matrix cov = ref::NaiveCovariance(standardized);
        if (cov.rows() == 0) std::printf("unreachable\n");
      },
      iters);
  const double cov_optimized_ms = TimeMs(
      [&] {
        const Matrix cov = hunter::linalg::Covariance(standardized);
        if (cov.rows() == 0) std::printf("unreachable\n");
      },
      iters);
  RecordBench("pca_covariance", std::to_string(n) + "x" + std::to_string(d),
              cov_baseline_ms, cov_optimized_ms);

  const double baseline_ms = TimeMs(
      [&] {
        const Matrix centered = hunter::linalg::Standardize(data, true);
        const Matrix cov = ref::NaiveCovariance(centered);
        const auto eigen = hunter::linalg::SymmetricEigenJacobi(cov);
        if (eigen.eigenvalues.empty()) std::printf("unreachable\n");
      },
      iters);
  const double optimized_ms = TimeMs(
      [&] {
        hunter::ml::Pca pca;
        pca.Fit(data, /*standardize=*/true);
        if (!pca.fitted()) std::printf("unreachable\n");
      },
      iters);
  RecordBench("pca_fit", std::to_string(n) + "x" + std::to_string(d),
              baseline_ms, optimized_ms);
}

// ---------------------------------------------------------------------------
// ISA-tier benchmarks: the same dispatched entry point timed twice, once
// pinned to the scalar tier (SetSimdTierForTesting) and once at the tier
// the host actually dispatches (ClearSimdTierForTesting falls back to
// HUNTER_FORCE_SCALAR / hardware, so a forced-scalar run times scalar both
// ways and honestly reports ~1x at tier "scalar"). The equivalence gates
// demand bit identity — tolerance 0.0 — which the column-lane kernels owe
// to ascending contraction order and separate mul+add (see
// linalg/simd/simd.h).

void BenchGemmSimd(bool smoke) {
  const size_t n = smoke ? 16 : 128;
  const int iters = smoke ? 3 : 40;
  Rng rng(0xBEEF20);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);

  Matrix scalar_out;
  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  a.MultiplyInto(b, &scalar_out);
  hunter::common::ClearSimdTierForTesting();
  Matrix simd_out;
  a.MultiplyInto(b, &simd_out);
  double max_diff = 0.0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      max_diff =
          std::max(max_diff, std::abs(scalar_out.At(r, c) - simd_out.At(r, c)));
    }
  }
  RecordEquiv("gemm_simd_vs_scalar", max_diff, 0.0);

  double sink = 0.0;
  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  const double baseline_ms = TimeMs(
      [&] {
        a.MultiplyInto(b, &scalar_out);
        sink += scalar_out.At(0, 0);
      },
      iters);
  hunter::common::ClearSimdTierForTesting();
  const double optimized_ms = TimeMs(
      [&] {
        a.MultiplyInto(b, &simd_out);
        sink += simd_out.At(0, 0);
      },
      iters);
  if (sink == 42.0) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("gemm_simd", std::to_string(n) + "x" + std::to_string(n) + "x" +
                               std::to_string(n) + " scalar tier vs dispatched",
              baseline_ms, optimized_ms);
}

void BenchGpKernelSimd(bool smoke) {
  // The GP's vectorized kernels end to end: the gram build
  // (SquaredDistInto) inside Fit, then the GEMM-backed
  // cross-covariance and squared-distance expansion inside
  // ExpectedImprovementBatch, at OtterTune's full-mode shape.
  const size_t n = smoke ? 24 : 120;
  const size_t d = smoke ? 8 : 65;
  const size_t candidates = smoke ? 20 : 200;
  const int iters = smoke ? 2 : 20;
  Rng data_rng(0xBEEF21);
  Matrix x;
  std::vector<double> y;
  MakeRegressionData(n, d, &data_rng, &x, &y);
  const Matrix cand = RandomMatrix(candidates, d, &data_rng);
  const double best = *std::max_element(y.begin(), y.end());

  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  hunter::ml::GaussianProcess scalar_gp;
  scalar_gp.Fit(x, y);
  std::vector<double> scalar_scores;
  scalar_gp.ExpectedImprovementBatch(cand, best, &scalar_scores);
  hunter::common::ClearSimdTierForTesting();
  hunter::ml::GaussianProcess simd_gp;
  simd_gp.Fit(x, y);
  std::vector<double> simd_scores;
  simd_gp.ExpectedImprovementBatch(cand, best, &simd_scores);
  RecordEquiv("gp_kernel_simd_vs_scalar",
              MaxAbsDiff(scalar_scores, simd_scores), 0.0);

  double sink = 0.0;
  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  const double baseline_ms = TimeMs(
      [&] {
        hunter::ml::GaussianProcess gp;
        gp.Fit(x, y);
        gp.ExpectedImprovementBatch(cand, best, &scalar_scores);
        sink += scalar_scores[0];
      },
      iters);
  hunter::common::ClearSimdTierForTesting();
  const double optimized_ms = TimeMs(
      [&] {
        hunter::ml::GaussianProcess gp;
        gp.Fit(x, y);
        gp.ExpectedImprovementBatch(cand, best, &simd_scores);
        sink += simd_scores[0];
      },
      iters);
  if (sink == 42.0) std::printf("unlikely\n");  // keep the sink alive
  RecordBench("gp_kernel_simd",
              "fit n=" + std::to_string(n) + ", d=" + std::to_string(d) +
                  " + EI over " + std::to_string(candidates) + " candidates",
              baseline_ms, optimized_ms);
}

void BenchMlpForwardSimd(bool smoke) {
  const size_t batch = 32;
  const std::vector<size_t> sizes = {63, 64, 64, 20};
  const int iters = smoke ? 3 : 300;
  Rng rng(0xBEEF22);
  hunter::ml::Mlp net(sizes, hunter::ml::Activation::kReLU,
                      hunter::ml::Activation::kTanh, &rng);
  const Matrix input = RandomMatrix(batch, sizes.front(), &rng);

  Matrix scalar_out;
  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  net.ForwardBatch(input, &scalar_out);
  hunter::common::ClearSimdTierForTesting();
  Matrix simd_out;
  net.ForwardBatch(input, &simd_out);
  double max_diff = 0.0;
  for (size_t r = 0; r < batch; ++r) {
    for (size_t c = 0; c < sizes.back(); ++c) {
      max_diff =
          std::max(max_diff, std::abs(scalar_out.At(r, c) - simd_out.At(r, c)));
    }
  }
  RecordEquiv("mlp_forward_simd_vs_scalar", max_diff, 0.0);

  hunter::common::SetSimdTierForTesting(hunter::common::SimdTier::kScalar);
  const double baseline_ms = TimeMs(
      [&] { net.ForwardBatch(input, &scalar_out); }, iters);
  hunter::common::ClearSimdTierForTesting();
  const double optimized_ms =
      TimeMs([&] { net.ForwardBatch(input, &simd_out); }, iters);
  RecordBench("mlp_forward_simd", "net {63,64,64,20} batch 32", baseline_ms,
              optimized_ms);
}

// ---------------------------------------------------------------------------

// Scientific notation with `digits` fractional digits, classic locale
// (fprintf "%e" would follow the process locale's decimal separator).
std::string FormatScientific(double value, int digits) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.setf(std::ios::scientific, std::ios::floatfield);
  os.precision(digits);
  os << value;
  return os.str();
}

void WriteJson(const std::string& path, bool smoke) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  hunter::common::ScopedClassicLocale pin(f);
  f << "{\n";
  f << "  \"schema\": \"hunter-bench-hotpaths-v1\",\n";
  f << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  f << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ",\n";
  f << "  \"pool_threads\": " << g_pool_threads << ",\n";
  f << "  \"simd_tier\": \"" << hunter::linalg::simd::ActiveTierName()
    << "\",\n";
  f << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < g_benches.size(); ++i) {
    const BenchResult& b = g_benches[i];
    f << "    {\"name\": \"" << b.name << "\", \"config\": \"" << b.config
      << "\", \"baseline_ms\": "
      << hunter::common::FormatDoubleFixed(b.baseline_ms, 6)
      << ", \"optimized_ms\": "
      << hunter::common::FormatDoubleFixed(b.optimized_ms, 6)
      << ", \"speedup\": " << hunter::common::FormatDoubleFixed(b.Speedup(), 3)
      << ", \"simd_tier\": \"" << b.simd_tier << "\"";
    if (b.pool_threads > 0) f << ", \"pool_threads\": " << b.pool_threads;
    f << "}" << (i + 1 < g_benches.size() ? "," : "") << "\n";
  }
  f << "  ],\n";
  f << "  \"equivalence\": [\n";
  for (size_t i = 0; i < g_equivs.size(); ++i) {
    const EquivResult& e = g_equivs[i];
    f << "    {\"name\": \"" << e.name
      << "\", \"max_abs_diff\": " << FormatScientific(e.max_abs_diff, 3)
      << ", \"tolerance\": " << FormatScientific(e.tolerance, 0)
      << ", \"pass\": " << (e.Pass() ? "true" : "false") << "}"
      << (i + 1 < g_equivs.size() ? "," : "") << "\n";
  }
  f << "  ]\n";
  f << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strcmp(argv[i], "--mode=smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--mode=full") == 0) {
      smoke = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke | --mode=smoke|full] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  g_time_reps = smoke ? 1 : 5;
  // Pool width: HUNTER_BENCH_THREADS or 4, clamped to the cores actually
  // present. An unclamped width oversubscribes small machines and reports
  // "parallel speedups" that are pure context-switch noise (e.g. pool=4 on
  // a 1-core box losing to the serial baseline).
  const size_t hardware_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  g_pool_threads = std::min<size_t>(g_pool_threads, hardware_threads);
  if (const char* env = std::getenv("HUNTER_BENCH_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      g_pool_threads =
          std::min(static_cast<size_t>(parsed), hardware_threads);
    }
  }

  std::printf(
      "bench_micro_hotpaths (%s mode, hardware_concurrency=%u, "
      "pool_threads=%zu)\n",
      smoke ? "smoke" : "full", std::thread::hardware_concurrency(),
      g_pool_threads);
  BenchGemm(smoke);
  BenchForest(smoke);
  BenchGpFit(smoke);
  BenchGpEiBatch(smoke);
  BenchZipfDraw(smoke);
  BenchBufferPoolReplay(smoke);
  BenchEngineEvalCold(smoke);
  BenchPca(smoke);
  BenchGemmSimd(smoke);
  BenchGpKernelSimd(smoke);
  BenchMlpForwardSimd(smoke);
  WriteJson(out_path, smoke);

  bool all_pass = true;
  for (const auto& e : g_equivs) all_pass = all_pass && e.Pass();
  std::printf("%s\n", all_pass ? "all equivalence checks passed"
                               : "EQUIVALENCE FAILURE");
  return all_pass ? 0 : 1;
}
