#include "ml/gaussian_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numbers>
#include <utility>

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

size_t GaussianProcess::SharedRows(const linalg::Matrix& x,
                                   size_t* shift) const {
  const size_t old_n = train_x_.rows();
  if (x.cols() != train_x_.cols()) return 0;
  // Row-major storage makes each candidate overlap one contiguous run, and
  // memcmp stops at the first differing byte.
  for (size_t s = 0; s < old_n; ++s) {
    const size_t kept = std::min(x.rows(), old_n - s);
    if (std::memcmp(train_x_.Data() + s * x.cols(), x.Data(),
                    kept * x.cols() * sizeof(double)) == 0) {
      *shift = s;
      return kept;
    }
  }
  return 0;
}

// hunterlint: hot
bool GaussianProcess::Fit(const linalg::Matrix& x,
                          const std::vector<double>& y) {
  assert(x.rows() == y.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t old_n = train_x_.rows();
  size_t shift = 0;
  const size_t kept = SharedRows(x, &shift);

  // The shared block moves into place: K(i,j) = K_old(i+s, j+s) for
  // i, j < kept, and likewise the row norms. The new kernel is assembled in
  // chol_'s storage, which this fit overwrites anyway, then the two swap.
  chol_.Reshape(n, n);
  for (size_t i = 0; i < kept; ++i) {
    std::copy_n(kernel_.Data() + (i + shift) * old_n + shift, kept,
                chol_.Data() + i * n);
  }
  std::swap(kernel_, chol_);
  row_norms_.erase(row_norms_.begin(),
                   row_norms_.begin() + static_cast<long>(shift));
  row_norms_.resize(n);
  train_x_ = x;

  // Rows [kept, n) are new. Their Gram entries against every row come from
  // one GEMM, G = X X_newᵀ (n x fresh, d ascending, each product in the
  // order a full X Xᵀ forms it); a new row's norm is its diagonal entry, so
  // the expansion gives exactly zero distance there (nᵢ + nᵢ − 2nᵢ).
  const size_t fresh = n - kept;
  if (fresh > 0) {
    fresh_t_.Reshape(d, fresh);
    for (size_t r = 0; r < fresh; ++r) {
      for (size_t c = 0; c < d; ++c) fresh_t_.At(c, r) = x.At(kept + r, c);
    }
    gram_.Reshape(n, fresh);
    linalg::simd::GemmInto(x.Data(), n, d, fresh_t_.Data(), fresh,
                           /*accumulate=*/false, gram_.Data());
    for (size_t i = kept; i < n; ++i) row_norms_[i] = gram_.At(i, i - kept);

    // Each new entry K(j,i), i >= j, as a full build computes it in row j's
    // pass: the vectorized max(0, nⱼ + nᵢ − 2g) expansion (the lower
    // index's norm first), then the scalar exp — libm has no
    // bit-reproducible vector form. An entry depends on its two rows alone,
    // so the kept block equals what a full build would compute.
    const double ls = options_.length_scale * options_.length_scale;
    sq_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      const size_t begin = std::max(j, kept);
      linalg::simd::SquaredDistInto(row_norms_[j], row_norms_.data() + begin,
                                    gram_.Data() + j * fresh + (begin - kept),
                                    sq_.data(), n - begin);
      for (size_t i = begin; i < n; ++i) {
        const double value =
            options_.signal_variance * std::exp(-0.5 * sq_[i - begin] / ls);
        kernel_.At(j, i) = value;
        kernel_.At(i, j) = value;
      }
      if (j >= kept) kernel_.At(j, j) += options_.noise_variance;
    }
  }
  if (!linalg::Cholesky(kernel_, &chol_)) {
    fitted_ = false;
    return false;
  }

  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  if (n > 0) y_mean_ /= static_cast<double>(n);
  alpha_.resize(n);
  for (size_t i = 0; i < n; ++i) alpha_[i] = y[i] - y_mean_;
  linalg::CholeskySolve(chol_, &alpha_);
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
    linalg::simd::GemmInto(train_x_.Data(), n, d, query_t_.Data(), m,
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
