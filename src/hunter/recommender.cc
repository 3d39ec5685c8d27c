#include "hunter/recommender.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hunter::core {

Recommender::Recommender(const cdb::KnobCatalog* catalog, const Rules* rules,
                         OptimizedSpace space,
                         const RecommenderOptions& options, uint64_t seed)
    : catalog_(catalog),
      rules_(rules),
      space_(std::move(space)),
      options_(options),
      rng_(seed),
      noise_(space_.selected_knobs.size(), 0.15, options.ou_sigma_start),
      best_fitness_(-std::numeric_limits<double>::infinity()),
      standardizer_(space_.state_dim) {
  options_.ddpg.state_dim = space_.state_dim;
  options_.ddpg.action_dim = space_.selected_knobs.size();
  agent_ = std::make_unique<ml::Ddpg>(options_.ddpg, &rng_);
  base_config_ = catalog_->NormalizeConfiguration(
      catalog_->DefaultConfiguration());
  state_.assign(space_.state_dim, 0.0);
}

std::vector<double> Recommender::ReducedAction(
    const std::vector<double>& full) const {
  std::vector<double> reduced(space_.selected_knobs.size());
  for (size_t i = 0; i < reduced.size(); ++i) {
    reduced[i] = full[space_.selected_knobs[i]];
  }
  return reduced;
}

std::vector<double> Recommender::ExpandAction(
    const std::vector<double>& reduced) const {
  std::vector<double> full = base_config_;
  for (size_t i = 0; i < reduced.size(); ++i) {
    full[space_.selected_knobs[i]] = reduced[i];
  }
  return rules_->Apply(*catalog_, std::move(full));
}

std::vector<double> Recommender::EncodeState(
    const std::vector<double>& metrics) {
  return standardizer_.Standardize(space_.EncodeState(metrics));
}

void Recommender::WarmStart(const std::vector<controller::Sample>& pool,
                            const std::vector<double>& base_full_config) {
  if (!base_full_config.empty()) base_config_ = base_full_config;
  // Seed the replay buffer with the entire Shared Pool (the paper's key
  // hybrid-design decision: GA samples warm-start DDPG).
  for (const controller::Sample& sample : pool) {
    ml::Transition transition;
    transition.state = state_;
    transition.action = ReducedAction(sample.knobs);
    transition.reward = sample.fitness;
    agent_->AddTransition(std::move(transition));
    if (!sample.boot_failed) state_ = EncodeState(sample.metrics);
    if (!sample.boot_failed && sample.fitness > best_fitness_) {
      best_fitness_ = sample.fitness;
      best_action_ = ReducedAction(sample.knobs);
    }
  }
  for (int i = 0; i < options_.warm_start_updates; ++i) agent_->TrainStep();
}

double Recommender::ProbabilityCurrent(size_t t) const {
  // Equations 5-7: P(A_c) + P(A_best) = 1, P(A_c) monotone increasing in t,
  // lim P(A_c) = 1, P(A_c)|_{t=0} = 0.3.
  const double start = options_.fes_p_current_start;
  const double p = 1.0 - (1.0 - start) * std::exp(-static_cast<double>(t) /
                                                  options_.fes_growth_steps);
  // A small share of A_best exploitation is kept alive indefinitely; the
  // limit of Eq. 6 is approached but the anchor-based local search never
  // fully vanishes (guards against policy drift in very long runs).
  return std::min(p, options_.fes_p_current_cap);
}

std::vector<std::vector<double>> Recommender::Propose(size_t count) {
  last_reduced_actions_.clear();
  std::vector<std::vector<double>> proposals;
  const size_t action_dim = space_.selected_knobs.size();
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> reduced;
    if (rng_.Bernoulli(options_.random_restart_prob)) {
      reduced.resize(action_dim);
      for (double& v : reduced) v = rng_.Uniform();
      last_reduced_actions_.push_back(reduced);
      proposals.push_back(ExpandAction(reduced));
      continue;
    }
    const bool fes_exploit =
        options_.use_fes && !best_action_.empty() &&
        !rng_.Bernoulli(ProbabilityCurrent(steps_));
    if (fes_exploit) {
      // A_best: the best-performing action plus a random value (Eq. 4).
      reduced = best_action_;
      for (double& v : reduced) {
        v = std::clamp(v + rng_.Gaussian(0.0, options_.fes_best_noise), 0.0,
                       1.0);
      }
    } else {
      reduced = agent_->Act(state_);
      const double t = std::min(
          1.0, static_cast<double>(steps_) / options_.ou_decay_steps);
      noise_.set_sigma(options_.ou_sigma_start +
                       t * (options_.ou_sigma_end - options_.ou_sigma_start));
      const std::vector<double>& n = noise_.Sample(&rng_);
      for (size_t d = 0; d < action_dim; ++d) {
        reduced[d] = std::clamp(reduced[d] + n[d], 0.0, 1.0);
      }
    }
    last_reduced_actions_.push_back(reduced);
    proposals.push_back(ExpandAction(reduced));
  }
  return proposals;
}

void Recommender::Observe(const std::vector<controller::Sample>& samples) {
  int usable = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const controller::Sample& sample = samples[i];
    // Sample i answers proposal i: skip a failed evaluation at its own
    // index so the samples after it keep their own actions.
    if (sample.evaluation_failed) continue;
    ++usable;
    ml::Transition transition;
    transition.state = state_;
    transition.action = i < last_reduced_actions_.size()
                            ? last_reduced_actions_[i]
                            : ReducedAction(sample.knobs);
    transition.reward = sample.fitness;
    agent_->AddTransition(std::move(transition));
    if (!sample.boot_failed) state_ = EncodeState(sample.metrics);
    ++steps_;
    if (!sample.boot_failed && sample.fitness > best_fitness_) {
      best_fitness_ = sample.fitness;
      best_action_ = i < last_reduced_actions_.size()
                         ? last_reduced_actions_[i]
                         : ReducedAction(sample.knobs);
      base_config_ = sample.knobs;  // frozen knobs track the incumbent
    }
  }
  // Training effort is bounded per observation round, not per sample: a
  // 20-clone batch must not train 20x harder per unit of new data, or the
  // policy overfits its replay and collapses late in long runs.
  const int updates =
      std::min<int>(options_.train_steps_per_sample * usable,
                    2 * options_.train_steps_per_sample);
  for (int k = 0; k < updates; ++k) agent_->TrainStep();
}

}  // namespace hunter::core
