#include "tuners/cdbtune.h"

#include <algorithm>

namespace hunter::tuners {

CdbTuneTuner::CdbTuneTuner(size_t num_metrics, size_t num_knobs,
                           std::vector<double> workload_features,
                           const CdbTuneOptions& options, uint64_t seed,
                           std::string display_name)
    : display_name_(std::move(display_name)),
      workload_features_(std::move(workload_features)),
      options_(options),
      rng_(seed),
      noise_(num_knobs, 0.15, options.noise_sigma_start),
      standardizer_(num_metrics) {
  options_.ddpg.state_dim = num_metrics + workload_features_.size();
  options_.ddpg.action_dim = num_knobs;
  agent_ = std::make_unique<ml::Ddpg>(options_.ddpg, &rng_);
  state_.assign(options_.ddpg.state_dim, 0.0);
  // Workload features are static; bake them into the initial state tail.
  std::copy(workload_features_.begin(), workload_features_.end(),
            state_.begin() + static_cast<long>(num_metrics));
}

std::vector<double> CdbTuneTuner::EncodeState(
    const std::vector<double>& metrics) {
  std::vector<double> state = standardizer_.Standardize(metrics);
  state.insert(state.end(), workload_features_.begin(),
               workload_features_.end());
  return state;
}

double CdbTuneTuner::CurrentSigma() const {
  const double t = std::min(
      1.0, static_cast<double>(steps_) / options_.noise_decay_steps);
  return options_.noise_sigma_start +
         t * (options_.noise_sigma_end - options_.noise_sigma_start);
}

std::vector<std::vector<double>> CdbTuneTuner::Propose(size_t count) {
  last_actions_.clear();
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> action(options_.ddpg.action_dim);
    if (steps_ + i < options_.random_warmup) {
      for (double& v : action) v = rng_.Uniform();
    } else {
      action = agent_->Act(state_);
      noise_.set_sigma(CurrentSigma());
      const std::vector<double>& n = noise_.Sample(&rng_);
      for (size_t d = 0; d < action.size(); ++d) {
        action[d] = std::clamp(action[d] + n[d], 0.0, 1.0);
      }
    }
    last_actions_.push_back(std::move(action));
  }
  return last_actions_;
}

void CdbTuneTuner::Observe(const std::vector<controller::Sample>& samples) {
  for (size_t i = 0; i < samples.size(); ++i) {
    const controller::Sample& sample = samples[i];
    ml::Transition transition;
    transition.state = state_;
    transition.action =
        i < last_actions_.size() ? last_actions_[i] : sample.knobs;
    transition.reward = sample.fitness;
    agent_->AddTransition(std::move(transition));
    if (!sample.boot_failed) state_ = EncodeState(sample.metrics);
    ++steps_;
  }
  // Bounded per round, not per sample (see Recommender::Observe).
  const int updates = std::min<int>(
      options_.train_steps_per_sample * static_cast<int>(samples.size()),
      2 * options_.train_steps_per_sample);
  for (int k = 0; k < updates; ++k) agent_->TrainStep();
}

}  // namespace hunter::tuners
