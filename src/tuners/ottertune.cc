#include "tuners/ottertune.h"

#include <algorithm>
#include <limits>

#include "ml/latin_hypercube.h"

namespace hunter::tuners {
namespace {

constexpr size_t kMaxTrainSamples = 120;  // GP training-set cap (keep refits fast)

}  // namespace

OtterTuneTuner::OtterTuneTuner(size_t dim, const OtterTuneOptions& options,
                               uint64_t seed)
    : dim_(dim),
      options_(options),
      rng_(seed),
      gp_(options.gp),
      best_fitness_(-std::numeric_limits<double>::infinity()) {
  pending_initial_ = ml::LatinHypercube(options.initial_samples, dim_, &rng_);
}

std::vector<std::vector<double>> OtterTuneTuner::Propose(size_t count) {
  std::vector<std::vector<double>> proposals;
  while (proposals.size() < count && !pending_initial_.empty()) {
    proposals.push_back(pending_initial_.back());
    pending_initial_.pop_back();
  }
  while (proposals.size() < count) {
    if (!gp_.fitted()) {
      // GP not trained yet (all initial samples still in flight): random.
      std::vector<double> random(dim_);
      for (double& v : random) v = rng_.Uniform();
      proposals.push_back(std::move(random));
      continue;
    }
    // Maximize the expected improvement over random candidates: draw the
    // whole candidate set, score it in one GEMM-backed batch pass, then
    // keep the first maximum (strictly-greater comparison).
    const size_t total = options_.candidates;
    candidate_matrix_.Reshape(total, dim_);
    for (size_t c = 0; c < total; ++c) {
      for (size_t d = 0; d < dim_; ++d) {
        candidate_matrix_.At(c, d) = rng_.Uniform();
      }
    }
    gp_.ExpectedImprovementBatch(candidate_matrix_, best_fitness_,
                                 &candidate_scores_);
    std::vector<double> best_candidate(dim_, 0.5);
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best_index = total;
    for (size_t c = 0; c < total; ++c) {
      if (candidate_scores_[c] > best_score) {
        best_score = candidate_scores_[c];
        best_index = c;
      }
    }
    if (best_index < total) {
      const linalg::RowSpan row = candidate_matrix_.RowView(best_index);
      best_candidate.assign(row.begin(), row.end());
    }
    proposals.push_back(std::move(best_candidate));
  }
  return proposals;
}

void OtterTuneTuner::Observe(const std::vector<controller::Sample>& samples) {
  for (const controller::Sample& sample : samples) {
    observed_knobs_.push_back(sample.knobs);
    observed_fitness_.push_back(sample.fitness);
    if (!sample.boot_failed && sample.fitness > best_fitness_) {
      best_fitness_ = sample.fitness;
    }
  }
  RefitGp();
}

void OtterTuneTuner::RefitGp() {
  if (observed_knobs_.empty()) return;
  // Train on the most recent window.
  const size_t n = std::min(kMaxTrainSamples, observed_knobs_.size());
  const size_t start = observed_knobs_.size() - n;
  linalg::Matrix x(n, dim_);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim_; ++d) {
      x.At(i, d) = observed_knobs_[start + i][d];
    }
    y[i] = observed_fitness_[start + i];
  }
  gp_.Fit(x, y);
}

}  // namespace hunter::tuners
