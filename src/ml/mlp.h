// A small fully-connected network with Adam, sufficient for DDPG's actor and
// critic (the paper's Recommender trains two MLPs; CDBTune uses the same).
// Supports minibatch forward and backward (returning the gradient w.r.t. the
// input, which DDPG's actor update needs to pull dQ/da out of the critic),
// soft target updates, and parameter (de)serialization for the model-reuse
// schemes (§4).
//
// Training has one path: ForwardBatch/BackwardBatch run each pass as one
// GEMM over a (batch x dim) matrix, with per-layer scratch arenas reused
// across steps. Predict evaluates one example without touching them. Row r
// of ForwardBatch is bit-identical to Predict(row r): biases are seeded
// into the pre-activation arena before an accumulate-mode GEMM whose
// contraction index ascends exactly like Predict's dot-product loop (see
// linalg/matrix.h). So DDPG acts (Predict) with the same policy it trains
// (ForwardBatch). tests/ml/mlp_test.cc pins the training outputs' bits as
// golden digests and checks the input gradient against finite differences.

#ifndef HUNTER_ML_MLP_H_
#define HUNTER_ML_MLP_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace hunter::ml {

enum class Activation { kReLU, kTanh, kLinear };

class Mlp {
 public:
  Mlp() = default;

  // `layer_sizes` = {input, hidden..., output}; `hidden` activation applies
  // to all but the last layer, `output` to the last.
  Mlp(const std::vector<size_t>& layer_sizes, Activation hidden,
      Activation output, common::Rng* rng);

  // Forward pass on a single example, without touching the training arenas
  // (safe for target nets and concurrent evaluation after training).
  std::vector<double> Predict(const std::vector<double>& input) const;

  // Minibatch forward: `input` is (batch x in), `*output` becomes
  // (batch x out). Caches per-layer batch activations for BackwardBatch.
  // Row r of the output is bit-identical to Predict(row r of input).
  // `input` is borrowed, not copied: it must stay alive and unmodified
  // until the matching BackwardBatch (which reads it for the first layer's
  // parameter-gradient GEMM), and must not alias `*output`.
  void ForwardBatch(const linalg::Matrix& input, linalg::Matrix* output);

  // Minibatch backward through the cached ForwardBatch pass. `grad_output`
  // is (batch x out); parameter gradients accumulate summed over the batch
  // in ascending row order. If `grad_input` is non-null it becomes
  // dLoss/dInput (batch x in). Pass accumulate_param_grads=false when only
  // the input gradient is wanted (e.g. DDPG's actor update backpropagating
  // through a frozen critic) — the parameter-gradient GEMMs are skipped
  // entirely.
  void BackwardBatch(const linalg::Matrix& grad_output,
                     linalg::Matrix* grad_input,
                     bool accumulate_param_grads = true);

  // Applies one Adam update using the accumulated gradients (scaled by
  // 1/batch_size) and clears them.
  void AdamStep(double learning_rate, size_t batch_size);

  void ZeroGradients();

  // this = tau * other + (1 - tau) * this (per parameter). Shapes must match.
  void SoftUpdateFrom(const Mlp& other, double tau);

  // Hard copy of the other network's parameters (shapes must match).
  void CopyFrom(const Mlp& other);

  // Flattened parameter vector (weights then biases per layer), used by the
  // model-reuse schemes to save/restore a Recommender. LoadParameters
  // returns false, leaving the network untouched, unless `params` holds
  // exactly as many values as SaveParameters() returns.
  std::vector<double> SaveParameters() const;
  [[nodiscard]] bool LoadParameters(const std::vector<double>& params);

  size_t input_dim() const;
  size_t output_dim() const;
  bool initialized() const { return !layers_.empty(); }

 private:
  struct Layer {
    size_t in = 0;
    size_t out = 0;
    Activation activation = Activation::kLinear;
    std::vector<double> weights;  // out x in, row-major
    std::vector<double> bias;
    // Accumulated gradients and Adam moments.
    std::vector<double> grad_weights;
    std::vector<double> grad_bias;
    std::vector<double> m_weights, v_weights, m_bias, v_bias;
    // Minibatch arenas; allocated on first use, reused every step after.
    // A layer's input is the previous layer's batch_out (or the Mlp-level
    // batch_input0_ for the first layer), so no per-layer input copy exists.
    linalg::Matrix batch_pre;    // batch x out
    linalg::Matrix batch_out;    // batch x out
    linalg::Matrix weights_t;    // in x out (transpose for the forward GEMM)
    // weights_t is rebuilt lazily: parameter mutations flip this flag and
    // the next ForwardBatch re-gathers the transpose once.
    bool weights_t_valid = false;
  };

  static double Activate(double x, Activation act);

  std::vector<Layer> layers_;
  size_t adam_step_ = 0;
  // The last ForwardBatch input, borrowed for the first layer's
  // parameter-gradient GEMM in BackwardBatch (see the ForwardBatch lifetime
  // contract) — borrowing skips a (batch x in) copy per forward pass.
  const linalg::Matrix* batch_input0_ = nullptr;
  // BackwardBatch scratch (delta and the ping-pong upstream-gradient pair).
  linalg::Matrix scratch_delta_;
  linalg::Matrix scratch_grad_a_;
  linalg::Matrix scratch_grad_b_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_MLP_H_
