// The Recommender (§3.3): DDPG over the reduced search space (PCA-encoded
// state, top-k sifted knobs), warm-started from the Shared Pool, exploring
// with the Fast Exploration Strategy (FES, Equations 4-7):
//
//   A = A_c (the policy's action + OU noise)   with probability P(A_c)
//     | A_best (best-known action + noise)     with probability 1 - P(A_c)
//
// with P(A_c) = 0.3 at t = 0, strictly increasing, and -> 1 as t -> inf,
// so early steps exploit the warm-start samples' best region while later
// steps trust the trained policy.

#ifndef HUNTER_HUNTER_RECOMMENDER_H_
#define HUNTER_HUNTER_RECOMMENDER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "cdb/knob.h"
#include "common/rng.h"
#include "common/stats.h"
#include "controller/sample.h"
#include "hunter/rules.h"
#include "hunter/search_space_optimizer.h"
#include "ml/ddpg.h"
#include "ml/ou_noise.h"

namespace hunter::core {

struct RecommenderOptions {
  ml::DdpgOptions ddpg;        // state/action dims filled by the Recommender
  bool use_fes = true;
  double fes_p_current_start = 0.3;   // P(A_c) at t = 0 (§3.3)
  double fes_p_current_cap = 0.9;     // ceiling on P(A_c) (see .cc comment)
  double fes_best_noise = 0.05;       // sigma of the noise added to A_best
  // Fraction of proposals drawn uniformly at random (epsilon restarts keep
  // the recommender from locking into a local basin of the warm start).
  double random_restart_prob = 0.08;
  int train_steps_per_sample = 2;
  int warm_start_updates = 300;       // gradient steps on the seeded buffer
};

class Recommender {
 public:
  Recommender(const cdb::KnobCatalog* catalog, const Rules* rules,
              OptimizedSpace space, const RecommenderOptions& options,
              uint64_t seed);

  // Seeds the replay buffer with every Shared Pool sample and pre-trains —
  // HUNTER's hybrid warm start. Called once, on a fresh Recommender, so the
  // replayed pool starts from the zero state. `base` becomes the frozen
  // values of non-selected knobs (the best configuration found by the
  // factory).
  void WarmStart(const std::vector<controller::Sample>& pool,
                 const std::vector<double>& base_full_config);

  // Full-dimension proposals (selected knobs driven by the agent/FES,
  // frozen knobs from the base config, rules applied last).
  std::vector<std::vector<double>> Propose(size_t count);

  // `samples[i]` answers the i-th configuration of the last Propose. Samples
  // whose evaluation failed (an infrastructure fault) are skipped.
  void Observe(const std::vector<controller::Sample>& samples);

  // P(A_c) after `t` observed steps (exposed for tests; Equations 5-7).
  double ProbabilityCurrent(size_t t) const;

  const OptimizedSpace& space() const { return space_; }
  double best_fitness() const { return best_fitness_; }
  const std::vector<double>& best_full_config() const { return base_config_; }

  // DDPG updates run so far (warm start included).
  size_t train_steps() const { return agent_->train_steps(); }

  // Model (de)serialization for the reuse schemes (§4). LoadModel returns
  // false unless `params` fits the network this space implies, with every
  // value finite and at most 1e6 in magnitude.
  std::vector<double> SaveModel() const { return agent_->SaveParameters(); }
  [[nodiscard]] bool LoadModel(const std::vector<double>& params) {
    return agent_->LoadParameters(params);
  }

 private:
  std::vector<double> EncodeState(const std::vector<double>& metrics);
  std::vector<double> ReducedAction(const std::vector<double>& full) const;
  std::vector<double> ExpandAction(const std::vector<double>& reduced) const;

  const cdb::KnobCatalog* catalog_;
  const Rules* rules_;
  OptimizedSpace space_;
  RecommenderOptions options_;
  common::Rng rng_;
  std::unique_ptr<ml::Ddpg> agent_;
  ml::OuNoise noise_;

  std::vector<double> base_config_;   // full-dim; frozen knobs come from here
  std::vector<double> best_action_;   // reduced-dim best action (for FES)
  double best_fitness_;
  std::vector<double> state_;         // normalized encoded state
  std::vector<std::vector<double>> last_reduced_actions_;
  common::RunningStandardizer standardizer_;  // of the encoded state
  size_t steps_ = 0;
};

}  // namespace hunter::core

#endif  // HUNTER_HUNTER_RECOMMENDER_H_
