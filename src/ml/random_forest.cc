#include "ml/random_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <numeric>

namespace hunter::ml {

void RandomForest::Fit(const linalg::Matrix& x, const std::vector<double>& y,
                       const RandomForestOptions& options, common::Rng* rng,
                       common::ThreadPool* pool) {
  trees_.assign(options.num_trees, CartTree());
  importance_.assign(x.cols(), 0.0);

  CartOptions tree_options = options.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<size_t>(
        std::ceil(options.feature_fraction * static_cast<double>(x.cols())));
    tree_options.max_features = std::max<size_t>(1, tree_options.max_features);
  }

  // Fork one RNG per tree up front, in tree order. Each tree's fit then
  // depends only on its own RNG and the shared (read-only) data, so the
  // forest is bit-identical whether the trees run serially or on the pool.
  const size_t n = x.rows();
  std::vector<common::Rng> tree_rngs;
  tree_rngs.reserve(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) tree_rngs.push_back(rng->Fork());

  // Copy and sort every feature once for the whole forest; each tree reads
  // values through this shared read-only copy and derives its bootstrap
  // view's sorted stripes from it.
  FeaturePresort presort;
  presort.Build(x);

  // One worker per pool thread, at most one per tree. Every worker's
  // buffers are sized here, on the calling thread, and reused across its
  // trees, so a worker allocates only its trees' output arrays. Memory a
  // pool thread allocates stays in that thread's malloc arena, where the
  // calling thread's later allocations cannot reuse it.
  struct Worker {
    std::vector<uint32_t> bootstrap;
    CartTree::Workspace workspace;
  };
  const size_t num_workers =
      pool == nullptr ? 1 : std::min(pool->num_threads(), trees_.size());
  std::vector<Worker> workers(std::max<size_t>(1, num_workers));
  for (Worker& worker : workers) {
    worker.bootstrap.resize(n);
    worker.workspace.Reserve(presort, n, tree_options);
  }

  const auto fit_tree = [&](size_t t, Worker& worker) {
    common::Rng tree_rng = tree_rngs[t];
    for (uint32_t& row : worker.bootstrap) {
      row = static_cast<uint32_t>(
          tree_rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    trees_[t].FitPresorted(presort, y, worker.bootstrap, tree_options,
                           &tree_rng, &worker.workspace);
  };

  if (workers.size() > 1) {
    // Workers claim trees from a shared counter, so which worker fits a
    // tree depends on scheduling; the tree itself does not.
    std::atomic<size_t> next_tree{0};
    std::vector<std::future<void>> futures;
    futures.reserve(workers.size());
    for (Worker& worker : workers) {
      futures.push_back(pool->Submit([&fit_tree, &next_tree, &worker, this] {
        for (size_t t = next_tree++; t < trees_.size(); t = next_tree++) {
          fit_tree(t, worker);
        }
      }));
    }
    // Every worker finishes before any failure propagates: the tasks
    // reference this frame.
    for (auto& future : futures) future.wait();
    for (auto& future : futures) future.get();
  } else {
    for (size_t t = 0; t < trees_.size(); ++t) fit_tree(t, workers[0]);
  }

  // Reduce importances in fixed tree order (independent of scheduling).
  for (const auto& tree : trees_) {
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

double RandomForest::Predict(const std::vector<double>& row) const {
  if (trees_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(row);
  return sum / static_cast<double>(trees_.size());
}

std::vector<size_t> RandomForest::RankFeatures() const {
  std::vector<size_t> order(importance_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return importance_[a] > importance_[b];
  });
  return order;
}

}  // namespace hunter::ml
