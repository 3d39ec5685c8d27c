#include "ml/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd/simd.h"

namespace hunter::ml {

Mlp::Mlp(const std::vector<size_t>& layer_sizes, Activation hidden,
         Activation output, common::Rng* rng) {
  assert(layer_sizes.size() >= 2);
  layers_.resize(layer_sizes.size() - 1);
  for (size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = layers_[i];
    layer.in = layer_sizes[i];
    layer.out = layer_sizes[i + 1];
    layer.activation = (i + 1 == layers_.size()) ? output : hidden;
    layer.weights.resize(layer.in * layer.out);
    layer.bias.assign(layer.out, 0.0);
    // He/Xavier-style initialization scaled by fan-in.
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.weights) w = rng->Gaussian(0.0, scale);
    layer.grad_weights.assign(layer.weights.size(), 0.0);
    layer.grad_bias.assign(layer.out, 0.0);
    layer.m_weights.assign(layer.weights.size(), 0.0);
    layer.v_weights.assign(layer.weights.size(), 0.0);
    layer.m_bias.assign(layer.out, 0.0);
    layer.v_bias.assign(layer.out, 0.0);
  }
}

double Mlp::Activate(double x, Activation act) {
  switch (act) {
    case Activation::kReLU:
      return x > 0.0 ? x : 0.0;
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kLinear:
      return x;
  }
  return x;
}

std::vector<double> Mlp::Predict(const std::vector<double>& input) const {
  assert(!layers_.empty());
  std::vector<double> activation = input;
  std::vector<double> next;
  for (const Layer& layer : layers_) {
    assert(activation.size() == layer.in);
    next.assign(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; ++o) {
      double sum = layer.bias[o];
      const double* w = &layer.weights[o * layer.in];
      for (size_t i = 0; i < layer.in; ++i) sum += w[i] * activation[i];
      next[o] = Activate(sum, layer.activation);
    }
    activation.swap(next);
  }
  return activation;
}

void Mlp::ForwardBatch(const linalg::Matrix& input, linalg::Matrix* output) {
  assert(!layers_.empty());
  const size_t batch = input.rows();
  batch_input0_ = &input;
  const linalg::Matrix* cur = &input;
  for (Layer& layer : layers_) {
    assert(cur->cols() == layer.in);
    // One O(in*out) transpose gather, amortized over the batch and over
    // every ForwardBatch call until the weights next move.
    if (!layer.weights_t_valid) {
      layer.weights_t.Reshape(layer.in, layer.out);
      for (size_t o = 0; o < layer.out; ++o) {
        const double* w = &layer.weights[o * layer.in];
        for (size_t i = 0; i < layer.in; ++i) layer.weights_t.At(i, o) = w[i];
      }
      layer.weights_t_valid = true;
    }
    // pre = bias + x * W^T in one kernel: each accumulator starts from the
    // bias and the inputs add on in ascending index order — the same
    // addition order as Predict's loop, so each row is bit-identical to it.
    layer.batch_pre.Reshape(batch, layer.out);
    linalg::GemmBiasInto(cur->Data(), batch, layer.in, layer.weights_t.Data(),
                         layer.out, layer.bias.data(),
                         layer.batch_pre.Data());
    layer.batch_out.Reshape(batch, layer.out);
    const double* pre = layer.batch_pre.Data();
    double* out = layer.batch_out.Data();
    const size_t count = batch * layer.out;
    switch (layer.activation) {
      case Activation::kReLU:
        // max(x, 0) with the x-operand first is IEEE-identical to the
        // scalar `x > 0 ? x : 0` for every input including -0.0 and NaN.
        linalg::simd::ReluInto(pre, out, count);
        break;
      case Activation::kLinear:
        std::copy(pre, pre + count, out);
        break;
      case Activation::kTanh:
        // libm tanh has no vector form with identical rounding; stay scalar.
        for (size_t idx = 0; idx < count; ++idx) {
          out[idx] = std::tanh(pre[idx]);
        }
        break;
    }
    cur = &layer.batch_out;
  }
  *output = *cur;
}

void Mlp::BackwardBatch(const linalg::Matrix& grad_output,
                        linalg::Matrix* grad_input,
                        bool accumulate_param_grads) {
  assert(!layers_.empty());
  const size_t batch = grad_output.rows();
  const linalg::Matrix* grad = &grad_output;
  linalg::Matrix* next = &scratch_grad_a_;
  linalg::Matrix* spare = &scratch_grad_b_;
  for (size_t li = layers_.size(); li > 0; --li) {
    Layer& layer = layers_[li - 1];
    assert(grad->cols() == layer.out && grad->rows() == batch);
    assert(layer.batch_pre.rows() == batch);
    // delta = grad ⊙ activation'(pre, post).
    scratch_delta_.Reshape(batch, layer.out);
    {
      const double* g = grad->Data();
      const double* pre = layer.batch_pre.Data();
      const double* post = layer.batch_out.Data();
      double* delta = scratch_delta_.Data();
      const size_t count = batch * layer.out;
      switch (layer.activation) {
        case Activation::kReLU:
          linalg::simd::ReluGradMulInto(g, pre, delta, count);
          break;
        case Activation::kTanh:
          linalg::simd::TanhGradMulInto(g, post, delta, count);
          break;
        case Activation::kLinear:
          std::copy(g, g + count, delta);
          break;
      }
    }
    const double* delta = scratch_delta_.Data();
    assert(batch_input0_ != nullptr && batch_input0_->rows() == batch);
    const linalg::Matrix& layer_input =
        (li == 1) ? *batch_input0_ : layers_[li - 2].batch_out;
    if (accumulate_param_grads) {
      // grad_weights += delta^T * layer_input: the contraction runs over the
      // batch rows ascending.
      linalg::GemmTransposedAInto(delta, batch, layer.out, layer_input.Data(),
                                  layer.in, /*accumulate=*/true,
                                  layer.grad_weights.data());
      for (size_t r = 0; r < batch; ++r) {
        linalg::simd::AddInto(layer.grad_bias.data(), delta + r * layer.out,
                              layer.grad_bias.data(), layer.out);
      }
    }
    // Gradient w.r.t. the layer input = delta * weights (batch x in). The
    // first (input) layer only computes it when the caller wants it.
    const bool first_layer = (li == 1);
    linalg::Matrix* dst = first_layer ? grad_input : next;
    if (dst != nullptr) {
      dst->Reshape(batch, layer.in);
      linalg::GemmInto(delta, batch, layer.out, layer.weights.data(),
                       layer.in, /*accumulate=*/false, dst->Data());
    }
    if (!first_layer) {
      grad = next;
      std::swap(next, spare);
    }
  }
}

void Mlp::AdamStep(double learning_rate, size_t batch_size) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEpsilon = 1e-8;
  ++adam_step_;
  const double scale = batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_step_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_step_));
  // The whole update is elementwise (vsqrtpd rounds identically to
  // std::sqrt), so it runs through the dispatched kernel.
  for (Layer& layer : layers_) {
    linalg::simd::AdamUpdateInPlace(layer.weights.data(),
                                    layer.grad_weights.data(),
                                    layer.m_weights.data(),
                                    layer.v_weights.data(),
                                    layer.weights.size(), scale, learning_rate,
                                    kBeta1, kBeta2, bias1, bias2, kEpsilon);
    linalg::simd::AdamUpdateInPlace(layer.bias.data(), layer.grad_bias.data(),
                                    layer.m_bias.data(), layer.v_bias.data(),
                                    layer.out, scale, learning_rate, kBeta1,
                                    kBeta2, bias1, bias2, kEpsilon);
    layer.weights_t_valid = false;
  }
  ZeroGradients();
}

void Mlp::ZeroGradients() {
  for (Layer& layer : layers_) {
    std::fill(layer.grad_weights.begin(), layer.grad_weights.end(), 0.0);
    std::fill(layer.grad_bias.begin(), layer.grad_bias.end(), 0.0);
  }
}

std::vector<double> Mlp::SaveParameters() const {
  std::vector<double> params;
  for (const Layer& layer : layers_) {
    params.insert(params.end(), layer.weights.begin(), layer.weights.end());
    params.insert(params.end(), layer.bias.begin(), layer.bias.end());
  }
  return params;
}

bool Mlp::LoadParameters(const std::vector<double>& params) {
  size_t expected = 0;
  for (const Layer& layer : layers_) {
    expected += layer.weights.size() + layer.bias.size();
  }
  if (params.size() != expected) return false;
  size_t offset = 0;
  for (Layer& layer : layers_) {
    std::copy(params.begin() + static_cast<long>(offset),
              params.begin() + static_cast<long>(offset + layer.weights.size()),
              layer.weights.begin());
    offset += layer.weights.size();
    std::copy(params.begin() + static_cast<long>(offset),
              params.begin() + static_cast<long>(offset + layer.bias.size()),
              layer.bias.begin());
    offset += layer.bias.size();
    layer.weights_t_valid = false;
  }
  return true;
}

size_t Mlp::input_dim() const {
  return layers_.empty() ? 0 : layers_.front().in;
}

size_t Mlp::output_dim() const {
  return layers_.empty() ? 0 : layers_.back().out;
}

}  // namespace hunter::ml
