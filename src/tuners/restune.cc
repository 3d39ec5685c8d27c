#include "tuners/restune.h"

#include <cmath>

namespace hunter::tuners {

void ResTuneTuner::AddHistoricalModel(
    std::shared_ptr<ml::GaussianProcess> model,
    std::vector<double> workload_features) {
  base_models_.push_back({std::move(model), std::move(workload_features)});
}

double ResTuneTuner::WorkloadSimilarity(const BaseModel& base) const {
  // RBF over workload-feature distance.
  double sq = 0.0;
  const size_t n = std::min(base.features.size(), target_features_.size());
  for (size_t i = 0; i < n; ++i) {
    const double d = base.features[i] - target_features_[i];
    sq += d * d;
  }
  return std::exp(-sq / 0.5);
}

void ResTuneTuner::AcquisitionBatch(const linalg::Matrix& candidates,
                                    std::vector<double>* scores) const {
  // Target EI for the whole candidate set in one batched pass, as in
  // OtterTune.
  gp_.ExpectedImprovementBatch(candidates, best_fitness_, scores);
  if (base_models_.empty()) return;

  // Blend in historical models, weighted by workload similarity: one
  // batched EI pass per base model, accumulated per candidate in base
  // order. Historical weight shrinks as target evidence grows.
  const double evidence = static_cast<double>(observed_fitness_.size());
  const double meta_weight = 1.0 / (1.0 + 0.1 * evidence);
  std::vector<double> meta_scores(candidates.rows(), 0.0);
  double weight_sum = 0.0;
  for (const BaseModel& base : base_models_) {
    const double similarity = WorkloadSimilarity(base);
    base.gp->ExpectedImprovementBatch(candidates, best_fitness_,
                                      &base_scores_);
    for (size_t c = 0; c < meta_scores.size(); ++c) {
      meta_scores[c] += similarity * base_scores_[c];
    }
    weight_sum += similarity;
  }
  if (weight_sum > 1e-9) {
    for (size_t c = 0; c < meta_scores.size(); ++c) {
      (*scores)[c] = (1.0 - meta_weight) * (*scores)[c] +
                     meta_weight * (meta_scores[c] / weight_sum);
    }
  }
}

}  // namespace hunter::tuners
