#include "ml/gaussian_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "linalg/simd/simd.h"

namespace hunter::ml {

namespace {

// Standard normal PDF and CDF (via erfc) for Expected Improvement.
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double ExpectedImprovementFrom(double mean, double variance,
                               double best_so_far) {
  const double sigma = std::sqrt(variance);
  if (sigma < 1e-12) return std::max(0.0, mean - best_so_far);
  const double z = (mean - best_so_far) / sigma;
  return (mean - best_so_far) * NormalCdf(z) + sigma * NormalPdf(z);
}

// Ascending dot product — the contraction order every GEMM kernel in linalg
// commits to, so scalar values computed here are bit-identical to the
// corresponding Gram / cross-kernel matrix elements.
double DotAscending(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

double GaussianProcess::Kernel(linalg::RowSpan a, linalg::RowSpan b) const {
  double sq = 0.0;
  for (size_t i = 0; i < a.size; ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  const double ls = options_.length_scale * options_.length_scale;
  return options_.signal_variance * std::exp(-0.5 * sq / ls);
}

bool GaussianProcess::Fit(const linalg::Matrix& x,
                          const std::vector<double>& y) {
  assert(x.rows() == y.size());
  const size_t n = x.rows();
  train_x_ = x;
  train_xt_ = x.Transpose();

  // Gram matrix G = X Xᵀ in one GEMM, then K(i,j) from the squared-distance
  // expansion. The row norms are read off G's diagonal so the expansion
  // yields exactly zero distance on the diagonal (nᵢ + nᵢ − 2nᵢ);
  // PredictBatch reuses them for the cross-kernel.
  linalg::Matrix gram(n, n);
  if (n > 0) {
    linalg::GemmTransposedAInto(train_xt_.Data(), x.cols(), n,
                                train_xt_.Data(), n, /*accumulate=*/false,
                                gram.Data());
  }
  row_norms_.resize(n);
  for (size_t i = 0; i < n; ++i) row_norms_[i] = gram.At(i, i);

  linalg::Matrix k(n, n);
  // Squared distances for row i's upper triangle in one vector kernel (the
  // max(0, nᵢ + nⱼ − 2g) expansion), then the scalar exp — libm has no
  // bit-reproducible vector form.
  const double ls = options_.length_scale * options_.length_scale;
  std::vector<double> sq(n);
  for (size_t i = 0; i < n; ++i) {
    const double* gram_row = gram.Data() + i * n;
    linalg::simd::SquaredDistInto(row_norms_[i], row_norms_.data() + i,
                                  gram_row + i, sq.data() + i, n - i);
    for (size_t j = i; j < n; ++j) {
      const double value = options_.signal_variance * std::exp(-0.5 * sq[j] / ls);
      k.At(i, j) = value;
      k.At(j, i) = value;
    }
    k.At(i, i) += options_.noise_variance;
  }
  if (!linalg::Cholesky(k, &chol_)) {
    fitted_ = false;
    return false;
  }

  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  if (n > 0) y_mean_ /= static_cast<double>(n);
  std::vector<double> centered(n);
  for (size_t i = 0; i < n; ++i) centered[i] = y[i] - y_mean_;
  alpha_ = linalg::CholeskySolve(chol_, centered);
  fitted_ = true;
  return true;
}

GaussianProcess::Prediction GaussianProcess::Predict(
    const std::vector<double>& x) const {
  Prediction prediction;
  if (!fitted_) {
    prediction.variance = options_.signal_variance;
    return prediction;
  }
  const size_t n = train_x_.rows();
  const linalg::RowSpan q{x.data(), x.size()};
  std::vector<double> k_star(n);
  for (size_t i = 0; i < n; ++i) k_star[i] = Kernel(q, train_x_.RowView(i));

  double mean = y_mean_;
  for (size_t i = 0; i < n; ++i) mean += k_star[i] * alpha_[i];
  prediction.mean = mean;

  // variance = k(x,x) - k_star^T (K + noise)^{-1} k_star.
  const std::vector<double> v = linalg::CholeskySolve(chol_, k_star);
  double reduction = 0.0;
  for (size_t i = 0; i < n; ++i) reduction += k_star[i] * v[i];
  prediction.variance = std::max(0.0, Kernel(q, q) - reduction);
  return prediction;
}

double GaussianProcess::ExpectedImprovement(const std::vector<double>& x,
                                            double best_so_far) const {
  const Prediction p = Predict(x);
  return ExpectedImprovementFrom(p.mean, p.variance, best_so_far);
}

// hunterlint: hot
void GaussianProcess::PredictBatch(const linalg::Matrix& x,
                                   std::vector<Prediction>* out) const {
  const size_t m = x.rows();
  out->assign(m, Prediction{});
  if (!fitted_) {
    for (auto& p : *out) p.variance = options_.signal_variance;
    return;
  }
  const size_t n = train_x_.rows();
  const size_t d = train_x_.cols();
  assert(x.cols() == d);

  // Cross-kernel in one GEMM: C = Xq Xᵀ (m x n), then per-query k* rows via
  // the same expansion the training kernel uses.
  cross_.Reshape(m, n);
  if (m > 0 && n > 0) {
    linalg::GemmInto(x.Data(), m, d, train_xt_.Data(), n,
                     /*accumulate=*/false, cross_.Data());
  }
  query_norms_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const linalg::RowSpan q = x.RowView(i);
    query_norms_[i] = DotAscending(q.data, q.data, d);
  }

  k_star_.resize(n);
  forward_.resize(n);
  const double ls = options_.length_scale * options_.length_scale;
  for (size_t i = 0; i < m; ++i) {
    // Vectorized squared-distance expansion into k_star_, finished in place
    // by the scalar exp (libm, not reproducibly vectorizable) fused with
    // the ascending mean accumulation.
    linalg::simd::SquaredDistInto(query_norms_[i], row_norms_.data(),
                                  cross_.Data() + i * n, k_star_.data(), n);
    double mean = y_mean_;
    for (size_t j = 0; j < n; ++j) {
      k_star_[j] = options_.signal_variance * std::exp(-0.5 * k_star_[j] / ls);
      mean += k_star_[j] * alpha_[j];
    }
    // Forward substitution only: with w = L^{-1} k*, the quadratic form
    // k*ᵀ (L Lᵀ)^{-1} k* is exactly wᵀw — the back substitution the scalar
    // path performs just re-derives it through Lᵀ.
    double reduction = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double sum = k_star_[j];
      for (size_t k = 0; k < j; ++k) sum -= chol_.At(j, k) * forward_[k];
      forward_[j] = sum / chol_.At(j, j);
      reduction += forward_[j] * forward_[j];
    }
    // k(x,x) via the expansion is exactly signal_variance (zero distance).
    (*out)[i].mean = mean;
    (*out)[i].variance = std::max(0.0, options_.signal_variance - reduction);
  }
}

// hunterlint: hot
void GaussianProcess::ExpectedImprovementBatch(const linalg::Matrix& x,
                                               double best_so_far,
                                               std::vector<double>* out) const {
  PredictBatch(x, &batch_predictions_);
  out->resize(batch_predictions_.size());
  for (size_t i = 0; i < batch_predictions_.size(); ++i) {
    (*out)[i] = ExpectedImprovementFrom(batch_predictions_[i].mean,
                                        batch_predictions_[i].variance,
                                        best_so_far);
  }
}

}  // namespace hunter::ml
