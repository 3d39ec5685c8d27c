// ResTune (Zhang et al., SIGMOD'21), approximated at its core: Bayesian
// optimization whose surrogate blends a target GP with base GPs learned on
// historical workloads, weighted by how well each base model ranks the
// target's observations (an RGPE-style meta-learner). Under the paper's
// §6.1 protocol every tuner starts with no prior knowledge, so the ensemble
// starts empty and ResTune behaves like constrained BO; historical models
// can be registered to exercise the meta path (used by tests and the
// model-reuse experiments).

#ifndef HUNTER_TUNERS_RESTUNE_H_
#define HUNTER_TUNERS_RESTUNE_H_

#include <memory>
#include <string>
#include <vector>

#include "tuners/ottertune.h"

namespace hunter::tuners {

class ResTuneTuner : public OtterTuneTuner {
 public:
  ResTuneTuner(size_t dim, const OtterTuneOptions& options, uint64_t seed)
      : OtterTuneTuner(dim, options, seed) {}

  std::string name() const override { return "ResTune"; }

  // Registers a surrogate trained on a historical workload, with the
  // feature vector of that workload for similarity weighting.
  void AddHistoricalModel(std::shared_ptr<ml::GaussianProcess> model,
                          std::vector<double> workload_features);

  // Sets the current workload's features (for similarity weighting).
  void SetWorkloadFeatures(std::vector<double> features) {
    target_features_ = std::move(features);
  }

 protected:
  void AcquisitionBatch(const linalg::Matrix& candidates,
                        std::vector<double>* scores) const override;

 private:
  struct BaseModel {
    std::shared_ptr<ml::GaussianProcess> gp;
    std::vector<double> features;
  };
  double WorkloadSimilarity(const BaseModel& base) const;

  std::vector<BaseModel> base_models_;
  std::vector<double> target_features_;

  // Batch-scoring scratch, reused across Propose calls.
  mutable std::vector<double> base_scores_;
};

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_RESTUNE_H_
