// Scalar fallbacks for the elementwise kernels. Each loop body is the
// exact expression the original call site evaluated (same operand order,
// same conditionals), so routing a hot path through this layer at the
// scalar tier changes nothing — and the AVX2 lane is bit-compared against
// these, not against the call sites' history.

#include "linalg/simd/simd.h"

#include <algorithm>
#include <cmath>

namespace hunter::linalg::simd {

void AddIntoScalar(const double* x, const double* y, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void SubIntoScalar(const double* x, const double* y, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
}

void ScaleIntoScalar(const double* x, double factor, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * factor;
}

void AdamUpdateInPlaceScalar(double* p, const double* grads, double* m,
                             double* v, size_t n, double scale, double lr,
                             double beta1, double beta2, double bias1,
                             double bias2, double eps) {
  const double one_minus_beta1 = 1.0 - beta1;
  const double one_minus_beta2 = 1.0 - beta2;
  for (size_t i = 0; i < n; ++i) {
    const double g = grads[i] * scale;
    m[i] = beta1 * m[i] + one_minus_beta1 * g;
    v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void ReluIntoScalar(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluGradMulIntoScalar(const double* g, const double* pre, double* out,
                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = g[i] * (pre[i] > 0.0 ? 1.0 : 0.0);
  }
}

void TanhGradMulIntoScalar(const double* g, const double* post, double* out,
                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = g[i] * (1.0 - post[i] * post[i]);
  }
}

void AccumSquaredCenteredScalar(const double* x, const double* means,
                                double* acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - means[i];
    acc[i] += d * d;
  }
}

void StandardizeIntoScalar(const double* x, const double* means,
                           const double* stds, bool unit_variance,
                           double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double value = x[i] - means[i];
    if (unit_variance && stds[i] > 1e-12) value /= stds[i];
    out[i] = value;
  }
}

void SquaredDistIntoScalar(double norm_a, const double* norms_b,
                           const double* dots, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::max(0.0, norm_a + norms_b[i] - 2.0 * dots[i]);
  }
}

void ForwardSubstituteLanesScalar(const double* l, size_t n, double* bw,
                                  size_t m, double* red) {
  // Row by row across all right-hand sides, so consecutive operations are
  // independent. The sums of squares then run per column into a register
  // accumulator, as the one-vector loop and the AVX2 lanes add them: that
  // operand order decides which NaN survives when two different ones meet.
  for (size_t j = 0; j < n; ++j) {
    double* wj = bw + j * m;
    for (size_t k = 0; k < j; ++k) {
      const double ljk = l[j * n + k];
      const double* wk = bw + k * m;
      for (size_t c = 0; c < m; ++c) wj[c] -= ljk * wk[c];
    }
    const double diag = l[j * n + j];
    for (size_t c = 0; c < m; ++c) wj[c] /= diag;
  }
  for (size_t c = 0; c < m; ++c) {
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) sum += bw[j * m + c] * bw[j * m + c];
    red[c] = sum;
  }
}

void ClampUnitFromTanhIntoScalar(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double v = 0.5 * (x[i] + 1.0);
    out[i] = v < 0.0 ? 0.0 : (1.0 < v ? 1.0 : v);
  }
}

void ScaleClampIntoScalar(const double* x, double factor, double clip,
                          double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double v = x[i] * factor;
    out[i] = v < -clip ? -clip : (clip < v ? clip : v);
  }
}

}  // namespace hunter::linalg::simd
