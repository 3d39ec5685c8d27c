#include "ml/ddpg.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hunter::ml {

namespace {

constexpr double kCriticLr = 2e-3;
constexpr size_t kReplayCapacity = 100000;
// Largest parameter magnitude LoadParameters accepts. A trained export's
// largest |p| is about 2; a model whose weights are all 1e200 overflows the
// forward pass, and its proposals turn NaN within a few rounds.
constexpr double kMaxParameterMagnitude = 1e6;

std::vector<size_t> BuildSizes(size_t in, const std::vector<size_t>& hidden,
                               size_t out) {
  std::vector<size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  return merged;
}

// Maps tanh output in [-1,1] to the normalized knob space [0,1]. out may
// equal x.
void TanhToUnitInto(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double v = 0.5 * (x[i] + 1.0);
    out[i] = v < 0.0 ? 0.0 : (1.0 < v ? 1.0 : v);
  }
}

}  // namespace

Ddpg::Ddpg(const DdpgOptions& options, common::Rng* rng)
    : options_(options),
      rng_(rng->Fork()),
      buffer_(kReplayCapacity) {
  assert(options.state_dim > 0 && options.action_dim > 0);
  assert(options.grad_clip > 0.0);
  common::Rng init_rng = rng_.Fork();
  actor_ = Mlp(BuildSizes(options.state_dim, options.actor_hidden,
                          options.action_dim),
               Activation::kReLU, Activation::kTanh, &init_rng);
  critic_ = Mlp(BuildSizes(options.state_dim + options.action_dim,
                           options.critic_hidden, 1),
                Activation::kReLU, Activation::kLinear, &init_rng);
}

std::vector<double> Ddpg::Act(const std::vector<double>& state) const {
  assert(state.size() == options_.state_dim);
  std::vector<double> action = actor_.Predict(state);
  TanhToUnitInto(action.data(), action.data(), action.size());
  return action;
}

void Ddpg::AddTransition(Transition transition) {
  assert(transition.state.size() == options_.state_dim);
  assert(transition.action.size() == options_.action_dim);
  buffer_.Add(std::move(transition));
}

double Ddpg::TrainStep() {
  if (buffer_.empty()) return 0.0;
  ++train_steps_;
  buffer_.SampleIndices(options_.batch_size, &rng_, &batch_indices_);
  const size_t batch = batch_indices_.size();
  const size_t s_dim = options_.state_dim;
  const size_t a_dim = options_.action_dim;

  // Gather the minibatch into the state / state‖action arenas.
  b_states_.Reshape(batch, s_dim);
  b_sa_.Reshape(batch, s_dim + a_dim);
  for (size_t r = 0; r < batch; ++r) {
    const Transition& t = buffer_.at(batch_indices_[r]);
    std::copy(t.state.begin(), t.state.end(), b_states_.Data() + r * s_dim);
    double* sa_row = b_sa_.Data() + r * (s_dim + a_dim);
    std::copy(t.state.begin(), t.state.end(), sa_row);
    std::copy(t.action.begin(), t.action.end(), sa_row + s_dim);
  }

  // ---- Critic update: regress Q(s, a) onto the reward.
  double total_loss = 0.0;
  critic_.ZeroGradients();
  critic_.ForwardBatch(b_sa_, &b_q_);
  b_grad_q_.Reshape(batch, 1);
  for (size_t r = 0; r < batch; ++r) {
    const double error =
        b_q_.At(r, 0) - buffer_.at(batch_indices_[r]).reward;
    total_loss += error * error;
    b_grad_q_.At(r, 0) = 2.0 * error;
  }
  critic_.BackwardBatch(b_grad_q_, nullptr);
  critic_.AdamStep(kCriticLr, batch);

  // ---- Actor update: ascend dQ/da through the critic. The state columns
  // of b_sa_ are still valid; only the action columns are overwritten with
  // the actor's current policy.
  actor_.ZeroGradients();
  actor_.ForwardBatch(b_states_, &b_tanh_);
  for (size_t r = 0; r < batch; ++r) {
    TanhToUnitInto(b_tanh_.Data() + r * a_dim,
                   b_sa_.Data() + r * (s_dim + a_dim) + s_dim, a_dim);
  }
  critic_.ForwardBatch(b_sa_, &b_q_);
  b_grad_q_.Reshape(batch, 1);
  b_grad_q_.Fill(-1.0);
  // The critic is frozen during the actor update, and the next critic
  // update zeroes its gradients before accumulating, so its parameter
  // gradients here would be discarded unread: skip their GEMMs.
  critic_.BackwardBatch(b_grad_q_, &b_grad_sa_,
                        /*accumulate_param_grads=*/false);
  b_grad_action_.Reshape(batch, a_dim);
  const double clip = options_.grad_clip;
  for (size_t r = 0; r < batch; ++r) {
    // Chain through the [-1,1] -> [0,1] affine map (factor 0.5), clipped to
    // [-grad_clip, grad_clip].
    const double* grad_a = b_grad_sa_.Data() + r * (s_dim + a_dim) + s_dim;
    double* out = b_grad_action_.Data() + r * a_dim;
    for (size_t i = 0; i < a_dim; ++i) {
      const double v = grad_a[i] * 0.5;
      out[i] = v < -clip ? -clip : (clip < v ? clip : v);
    }
  }
  actor_.BackwardBatch(b_grad_action_, nullptr);
  actor_.AdamStep(options_.actor_lr, batch);

  return total_loss / static_cast<double>(batch);
}

double Ddpg::EvaluateQ(const std::vector<double>& state,
                       const std::vector<double>& action) const {
  return critic_.Predict(Concat(state, action))[0];
}

std::vector<double> Ddpg::SaveParameters() const {
  std::vector<double> params = actor_.SaveParameters();
  const std::vector<double> critic_params = critic_.SaveParameters();
  params.insert(params.end(), critic_params.begin(), critic_params.end());
  return params;
}

bool Ddpg::LoadParameters(const std::vector<double>& params) {
  // Check everything first so a rejected model changes neither network.
  const size_t actor_size = actor_.SaveParameters().size();
  if (params.size() != actor_size + critic_.SaveParameters().size()) {
    return false;
  }
  for (const double p : params) {
    // Written so that NaN fails the comparison too.
    if (!(std::abs(p) <= kMaxParameterMagnitude)) return false;
  }
  const auto split = params.begin() + static_cast<long>(actor_size);
  return actor_.LoadParameters(std::vector<double>(params.begin(), split)) &&
         critic_.LoadParameters(std::vector<double>(split, params.end()));
}

}  // namespace hunter::ml
