// CDBTune (Zhang et al., SIGMOD'19): end-to-end DDPG over the full
// (63-metric state, 65-knob action) space with OU exploration noise and no
// warm start — the paper's Figure 1 cold-start baseline and the "DDPG-only"
// row of the ablation tables.
//
// QTune (Li et al., VLDB'19) is implemented as a variant whose state vector
// is augmented with query/workload features (the DS-DDPG idea of feeding
// the agent workload awareness).

#ifndef HUNTER_TUNERS_CDBTUNE_H_
#define HUNTER_TUNERS_CDBTUNE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "ml/ddpg.h"
#include "ml/ou_noise.h"
#include "tuners/tuner.h"

namespace hunter::tuners {

struct CdbTuneOptions {
  ml::DdpgOptions ddpg;           // state_dim/action_dim filled by the tuner
  double noise_sigma_start = 0.5;
  double noise_sigma_end = 0.10;
  double noise_decay_steps = 1500; // steps to anneal exploration
  int train_steps_per_sample = 2;
  size_t random_warmup = 400;     // cold-start exploration before the policy acts
};

class CdbTuneTuner : public Tuner {
 public:
  // `workload_features` is empty for CDBTune; QTune passes features.
  CdbTuneTuner(size_t num_metrics, size_t num_knobs,
               std::vector<double> workload_features,
               const CdbTuneOptions& options, uint64_t seed,
               std::string display_name = "CDBTune");

  std::string name() const override { return display_name_; }
  std::vector<std::vector<double>> Propose(size_t count) override;
  void Observe(const std::vector<controller::Sample>& samples) override;

  ml::Ddpg& agent() { return *agent_; }

 private:
  // Standardizes the metrics (updating the running statistics first) and
  // appends the workload features.
  std::vector<double> EncodeState(const std::vector<double>& metrics);
  double CurrentSigma() const;

  std::string display_name_;
  std::vector<double> workload_features_;
  CdbTuneOptions options_;
  common::Rng rng_;
  std::unique_ptr<ml::Ddpg> agent_;
  ml::OuNoise noise_;
  common::RunningStandardizer standardizer_;  // of the metrics
  std::vector<double> state_;              // current encoded state
  std::vector<std::vector<double>> last_actions_;
  size_t steps_ = 0;
};

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_CDBTUNE_H_
