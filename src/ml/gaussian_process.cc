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

bool GaussianProcess::Fit(const linalg::Matrix& x,
                          const std::vector<double>& y) {
  assert(x.rows() == y.size());
  const size_t n = x.rows();
  train_x_ = x;

  // Gram matrix G = X Xᵀ in one GEMM, then K(i,j) from the squared-distance
  // expansion. The row norms are read off G's diagonal so the expansion
  // yields exactly zero distance on the diagonal (nᵢ + nᵢ − 2nᵢ);
  // PredictBatch reuses them for the cross-kernel.
  linalg::Matrix gram(n, n);
  if (n > 0) {
    const linalg::Matrix xt = x.Transpose();
    linalg::GemmTransposedAInto(xt.Data(), x.cols(), n, xt.Data(), n,
                                /*accumulate=*/false, gram.Data());
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

  // Candidates are the lanes: the cross-kernel is built transposed,
  // K*ᵀ = X Xqᵀ (n x m, one row per training point), in one GEMM over a
  // reused transpose of the candidates. Each element is the same d-ascending
  // sum of the same products as in Xq Xᵀ.
  query_t_.Reshape(d, m);
  for (size_t c = 0; c < m; ++c) {
    for (size_t k = 0; k < d; ++k) query_t_.At(k, c) = x.At(c, k);
  }
  cross_.Reshape(n, m);
  if (m > 0 && n > 0) {
    linalg::GemmInto(train_x_.Data(), n, d, query_t_.Data(), m,
                     /*accumulate=*/false, cross_.Data());
  }
  query_norms_.resize(m);
  for (size_t c = 0; c < m; ++c) {
    const linalg::RowSpan q = x.RowView(c);
    query_norms_[c] = DotAscending(q.data, q.data, d);
  }

  // Per training row j, across all candidates: the vectorized squared-
  // distance expansion in place, then the scalar exp (libm, not
  // reproducibly vectorizable) and each candidate's mean term, j ascending.
  for (auto& p : *out) p.mean = y_mean_;
  const double ls = options_.length_scale * options_.length_scale;
  for (size_t j = 0; j < n; ++j) {
    double* k_row = cross_.Data() + j * m;
    linalg::simd::SquaredDistInto(row_norms_[j], query_norms_.data(), k_row,
                                  k_row, m);
    const double alpha_j = alpha_[j];
    for (size_t c = 0; c < m; ++c) {
      k_row[c] = options_.signal_variance * std::exp(-0.5 * k_row[c] / ls);
      (*out)[c].mean += k_row[c] * alpha_j;
    }
  }

  // Forward substitution only, all candidates at once: with W = L⁻¹K*ᵀ the
  // quadratic form k*ᵀ (L Lᵀ)⁻¹ k* is exactly ‖w‖², so no back substitution
  // is needed. k(x,x) via the expansion is exactly signal_variance.
  reduction_.resize(m);
  linalg::simd::ForwardSubstituteLanes(chol_.Data(), n, cross_.Data(), m,
                                       reduction_.data());
  for (size_t c = 0; c < m; ++c) {
    (*out)[c].variance =
        std::max(0.0, options_.signal_variance - reduction_[c]);
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
