#include "hunter/search_space_optimizer.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <thread>

#include "common/thread_pool.h"

namespace hunter::core {
namespace {

constexpr double kVarianceThreshold = 0.90;  // PCA CDF cut (Fig. 7: 91% at 13)

}  // namespace

std::vector<double> OptimizedSpace::EncodeState(
    const std::vector<double>& metrics) const {
  if (use_pca) return pca.Transform(metrics, state_dim);
  return metrics;
}

std::string OptimizedSpace::Signature() const {
  std::vector<size_t> sorted = selected_knobs;
  std::sort(sorted.begin(), sorted.end());
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict issues
  // a false-positive overlap warning when the temporaries of a + chain are
  // inlined (PR105329), and the CI build promotes warnings to errors.
  std::string signature = "v";
  signature += std::to_string(state_dim);
  signature += ':';
  for (size_t knob : sorted) {
    signature += std::to_string(knob);
    signature += ',';
  }
  return signature;
}

OptimizedSpace SearchSpaceOptimizer::Optimize(
    const std::vector<controller::Sample>& pool,
    const cdb::KnobCatalog& catalog, const Rules& rules,
    const OptimizerOptions& options, common::Rng* rng) {
  OptimizedSpace space;
  const std::vector<size_t> tunable = rules.TunableKnobs(catalog);

  // ---- Metrics compression (PCA), fit straight from the pool: at the
  // last refreshes the metric matrix is over a megabyte, and a row-vector
  // copy of it would double that at the session's memory peak.
  size_t metric_rows = 0;
  size_t metric_dim = 0;
  for (const controller::Sample& sample : pool) {
    if (sample.boot_failed) continue;
    if (metric_rows == 0) metric_dim = sample.metrics.size();
    ++metric_rows;
  }
  if (options.use_pca && metric_rows >= 8) {
    linalg::Matrix metrics(metric_rows, metric_dim);
    size_t r = 0;
    for (const controller::Sample& sample : pool) {
      if (sample.boot_failed) continue;
      assert(sample.metrics.size() == metric_dim);
      std::copy_n(sample.metrics.begin(),
                  std::min(metric_dim, sample.metrics.size()),
                  metrics.Data() + r * metric_dim);
      ++r;
    }
    space.pca.Fit(metrics, /*standardize=*/true);
    space.state_dim = space.pca.ComponentsForVariance(kVarianceThreshold);
    space.use_pca = true;
  } else {
    space.state_dim = metric_dim;
    space.use_pca = false;
  }

  // ---- Knob sifting (Random Forest importance).
  if (options.use_rf && pool.size() >= 16 && !tunable.empty()) {
    linalg::Matrix x(pool.size(), tunable.size());
    std::vector<double> y(pool.size());
    for (size_t r = 0; r < pool.size(); ++r) {
      for (size_t c = 0; c < tunable.size(); ++c) {
        x.At(r, c) = pool[r].knobs[tunable[c]];
      }
      y[r] = pool[r].fitness;
    }
    ml::RandomForest forest;
    const unsigned cores = std::thread::hardware_concurrency();
    const size_t threads = std::min<size_t>(cores == 0 ? 1 : cores,
                                            options.forest.num_trees);
    std::unique_ptr<common::ThreadPool> fit_pool;
    if (threads > 1) fit_pool = std::make_unique<common::ThreadPool>(threads);
    forest.Fit(x, y, options.forest, rng, fit_pool.get());
    const std::vector<size_t> ranking = forest.RankFeatures();
    const size_t keep = std::min(options.top_knobs, tunable.size());
    space.selected_knobs.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      space.selected_knobs.push_back(tunable[ranking[i]]);
    }
    space.knob_importance.assign(catalog.size(), 0.0);
    const std::vector<double>& importance = forest.feature_importance();
    for (size_t c = 0; c < tunable.size(); ++c) {
      space.knob_importance[tunable[c]] = importance[c];
    }
  } else {
    space.selected_knobs = tunable;
    space.knob_importance.assign(catalog.size(), 0.0);
    for (size_t knob : tunable) {
      space.knob_importance[knob] = 1.0 / static_cast<double>(tunable.size());
    }
  }
  return space;
}

}  // namespace hunter::core
