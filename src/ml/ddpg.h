// Deep Deterministic Policy Gradient (Lillicrap et al. 2015), the DRL
// algorithm at the core of both CDBTune and HUNTER's Recommender (§3.3), in
// the one-step form both tuners run.
//
// The agent maps a (possibly PCA-compressed) metric vector `state` to a
// normalized knob configuration `action` in [0,1]^k. The critic fits
// Q(s, a) to the reward; the actor follows the deterministic policy
// gradient by ascending dQ/da through the critic. Each stress test is a
// one-step episode: bootstrapping a long-horizon return across independent
// configuration trials would couple unrelated decisions. So a transition
// has no next state, the critic's target is the reward itself, and there
// are no target networks, discount or soft-update rate.

#ifndef HUNTER_ML_DDPG_H_
#define HUNTER_ML_DDPG_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/mlp.h"
#include "ml/replay_buffer.h"

namespace hunter::ml {

struct DdpgOptions {
  size_t state_dim = 0;
  size_t action_dim = 0;
  std::vector<size_t> actor_hidden = {64, 64};
  std::vector<size_t> critic_hidden = {64, 64};
  double actor_lr = 1e-3;
  double critic_lr = 2e-3;
  size_t batch_size = 16;
  size_t replay_capacity = 100000;
  // Bound on each element of the actor's action gradient, |0.5 * dQ/da|;
  // must be positive.
  double grad_clip = 5.0;
};

class Ddpg {
 public:
  Ddpg(const DdpgOptions& options, common::Rng* rng);

  // Deterministic policy: action in [0,1]^action_dim (tanh mapped affinely).
  std::vector<double> Act(const std::vector<double>& state) const;

  void AddTransition(Transition transition);

  // Performs one minibatch update of the critic, then of the actor, each
  // pass one batched GEMM per layer over preallocated arenas. Returns the
  // critic's mean squared error against the sampled rewards (0 if the
  // buffer is empty, when nothing trains). Deterministic given the RNG
  // state; tests/ml/ddpg_test.cc pins its bits as golden digests.
  double TrainStep();
  // Minibatch updates that actually ran (empty-buffer calls excluded).
  size_t train_steps() const { return train_steps_; }

  // The critic's estimate of Q(s, a) — used by tests and diagnostics.
  double EvaluateQ(const std::vector<double>& state,
                   const std::vector<double>& action) const;

  size_t buffer_size() const { return buffer_.size(); }
  const ReplayBuffer& buffer() const { return buffer_; }
  const DdpgOptions& options() const { return options_; }

  // Serializes actor+critic parameters for the model-reuse schemes (§4).
  std::vector<double> SaveParameters() const;
  // Returns false, leaving the networks untouched, unless `params` holds
  // exactly as many values as SaveParameters() returns.
  [[nodiscard]] bool LoadParameters(const std::vector<double>& params);

 private:
  DdpgOptions options_;
  common::Rng rng_;
  Mlp actor_;
  Mlp critic_;
  ReplayBuffer buffer_;
  size_t train_steps_ = 0;

  // Sampled minibatch indices and training arenas, reused across steps so
  // the steady-state train loop allocates nothing.
  std::vector<size_t> batch_indices_;
  linalg::Matrix b_states_;            // batch x S
  linalg::Matrix b_sa_;                // batch x (S+A), state ‖ action
  linalg::Matrix b_tanh_;              // batch x A (actor tanh output)
  linalg::Matrix b_q_;                 // batch x 1
  linalg::Matrix b_grad_q_;            // batch x 1
  linalg::Matrix b_grad_sa_;           // batch x (S+A), dQ/d(s‖a)
  linalg::Matrix b_grad_action_;       // batch x A
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_DDPG_H_
