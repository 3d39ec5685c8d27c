// AVX2 lanes for the elementwise kernels, four doubles per step with a
// scalar tail running the exact fallback expression. Compiled with
// -mavx2 -mfma; the #else branch provides scalar-forwarding stubs and
// reports kHasAvx2Kernels = false.
//
// Every vector op here is an IEEE-exact lane-wise image of the scalar
// expression: vaddpd/vsubpd/vmulpd/vdivpd/vsqrtpd are correctly rounded per
// lane, multiply+add pairs stay unfused (-ffp-contract=off), vmaxpd's
// second-operand tie/NaN rule is matched to the ternaries it replaces, and
// conditionals become compare+blend in the same test order as the scalar
// code. See simd.h for the per-kernel arguments.

#include "linalg/simd/simd.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace hunter::linalg::simd {

const bool kHasAvx2Kernels = true;

void AddIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
}

void SubIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

void ScaleIntoAvx2(const double* x, double factor, double* out, size_t n) {
  const __m256d f = _mm256_set1_pd(factor);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), f));
  }
  for (; i < n; ++i) out[i] = x[i] * factor;
}

void AdamUpdateInPlaceAvx2(double* p, const double* grads, double* m,
                           double* v, size_t n, double scale, double lr,
                           double beta1, double beta2, double bias1,
                           double bias2, double eps) {
  const double one_minus_beta1 = 1.0 - beta1;
  const double one_minus_beta2 = 1.0 - beta2;
  const __m256d scale_v = _mm256_set1_pd(scale);
  const __m256d b1_v = _mm256_set1_pd(beta1);
  const __m256d b2_v = _mm256_set1_pd(beta2);
  const __m256d omb1_v = _mm256_set1_pd(one_minus_beta1);
  const __m256d omb2_v = _mm256_set1_pd(one_minus_beta2);
  const __m256d bias1_v = _mm256_set1_pd(bias1);
  const __m256d bias2_v = _mm256_set1_pd(bias2);
  const __m256d lr_v = _mm256_set1_pd(lr);
  const __m256d eps_v = _mm256_set1_pd(eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grads + i), scale_v);
    // m = beta1 * m + (1 - beta1) * g
    const __m256d mv =
        _mm256_add_pd(_mm256_mul_pd(b1_v, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(omb1_v, g));
    _mm256_storeu_pd(m + i, mv);
    // v = beta2 * v + ((1 - beta2) * g) * g
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2_v, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2_v, g), g));
    _mm256_storeu_pd(v + i, vv);
    const __m256d mhat = _mm256_div_pd(mv, bias1_v);
    const __m256d vhat = _mm256_div_pd(vv, bias2_v);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(vhat), eps_v);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(lr_v, mhat), denom);
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), step));
  }
  for (; i < n; ++i) {
    const double g = grads[i] * scale;
    m[i] = beta1 * m[i] + one_minus_beta1 * g;
    v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void ReluIntoAvx2(const double* x, double* out, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vmaxpd(x, 0) returns the SECOND operand when x is NaN or on a ±0 tie
    // — exactly the `x > 0 ? x : 0` false branch.
    _mm256_storeu_pd(out + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluGradMulIntoAvx2(const double* g, const double* pre, double* out,
                         size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(pre + i), zero, _CMP_GT_OQ);
    const __m256d gate = _mm256_blendv_pd(zero, one, mask);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), gate));
  }
  for (; i < n; ++i) out[i] = g[i] * (pre[i] > 0.0 ? 1.0 : 0.0);
}

void TanhGradMulIntoAvx2(const double* g, const double* post, double* out,
                         size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pv = _mm256_loadu_pd(post + i);
    const __m256d grad = _mm256_sub_pd(one, _mm256_mul_pd(pv, pv));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), grad));
  }
  for (; i < n; ++i) out[i] = g[i] * (1.0 - post[i] * post[i]);
}

void AccumSquaredCenteredAvx2(const double* x, const double* means,
                              double* acc, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                    _mm256_loadu_pd(means + i));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_mul_pd(d, d)));
  }
  for (; i < n; ++i) {
    const double d = x[i] - means[i];
    acc[i] += d * d;
  }
}

void StandardizeIntoAvx2(const double* x, const double* means,
                         const double* stds, bool unit_variance, double* out,
                         size_t n) {
  const __m256d eps = _mm256_set1_pd(1e-12);
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  if (unit_variance) {
    for (; i + 4 <= n; i += 4) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                      _mm256_loadu_pd(means + i));
      // Divisor blends to 1.0 where stds <= 1e-12 (or NaN): dividing by
      // 1.0 is exact, so the guarded lanes pass through untouched just as
      // the scalar `if` skips the divide.
      const __m256d sv = _mm256_loadu_pd(stds + i);
      const __m256d mask = _mm256_cmp_pd(sv, eps, _CMP_GT_OQ);
      const __m256d divisor = _mm256_blendv_pd(one, sv, mask);
      _mm256_storeu_pd(out + i, _mm256_div_pd(d, divisor));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                              _mm256_loadu_pd(means + i)));
    }
  }
  for (; i < n; ++i) {
    double value = x[i] - means[i];
    if (unit_variance && stds[i] > 1e-12) value /= stds[i];
    out[i] = value;
  }
}

void SquaredDistIntoAvx2(double norm_a, const double* norms_b,
                         const double* dots, double* out, size_t n) {
  const __m256d na = _mm256_set1_pd(norm_a);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum = _mm256_add_pd(na, _mm256_loadu_pd(norms_b + i));
    const __m256d sq =
        _mm256_sub_pd(sum, _mm256_mul_pd(two, _mm256_loadu_pd(dots + i)));
    // vmaxpd(sq, 0): second operand on NaN/tie, matching std::max(0.0, sq).
    _mm256_storeu_pd(out + i, _mm256_max_pd(sq, zero));
  }
  for (; i < n; ++i) {
    out[i] = std::max(0.0, norm_a + norms_b[i] - 2.0 * dots[i]);
  }
}

void ForwardSubstituteLanesAvx2(const double* l, size_t n, double* bw,
                                size_t m, double* red) {
  size_t c = 0;
  // 16 right-hand sides per pass: four independent subtract chains hide
  // the add latency a single substitution waits on, and each L(j,k) is
  // loaded once for all sixteen.
  for (; c + 16 <= m; c += 16) {
    __m256d r0 = _mm256_setzero_pd();
    __m256d r1 = _mm256_setzero_pd();
    __m256d r2 = _mm256_setzero_pd();
    __m256d r3 = _mm256_setzero_pd();
    for (size_t j = 0; j < n; ++j) {
      const double* lj = l + j * n;
      double* wj = bw + j * m + c;
      __m256d s0 = _mm256_loadu_pd(wj);
      __m256d s1 = _mm256_loadu_pd(wj + 4);
      __m256d s2 = _mm256_loadu_pd(wj + 8);
      __m256d s3 = _mm256_loadu_pd(wj + 12);
      for (size_t k = 0; k < j; ++k) {
        const __m256d ljk = _mm256_broadcast_sd(lj + k);
        const double* wk = bw + k * m + c;
        s0 = _mm256_sub_pd(s0, _mm256_mul_pd(ljk, _mm256_loadu_pd(wk)));
        s1 = _mm256_sub_pd(s1, _mm256_mul_pd(ljk, _mm256_loadu_pd(wk + 4)));
        s2 = _mm256_sub_pd(s2, _mm256_mul_pd(ljk, _mm256_loadu_pd(wk + 8)));
        s3 = _mm256_sub_pd(s3, _mm256_mul_pd(ljk, _mm256_loadu_pd(wk + 12)));
      }
      const __m256d diag = _mm256_broadcast_sd(lj + j);
      s0 = _mm256_div_pd(s0, diag);
      s1 = _mm256_div_pd(s1, diag);
      s2 = _mm256_div_pd(s2, diag);
      s3 = _mm256_div_pd(s3, diag);
      _mm256_storeu_pd(wj, s0);
      _mm256_storeu_pd(wj + 4, s1);
      _mm256_storeu_pd(wj + 8, s2);
      _mm256_storeu_pd(wj + 12, s3);
      r0 = _mm256_add_pd(r0, _mm256_mul_pd(s0, s0));
      r1 = _mm256_add_pd(r1, _mm256_mul_pd(s1, s1));
      r2 = _mm256_add_pd(r2, _mm256_mul_pd(s2, s2));
      r3 = _mm256_add_pd(r3, _mm256_mul_pd(s3, s3));
    }
    _mm256_storeu_pd(red + c, r0);
    _mm256_storeu_pd(red + c + 4, r1);
    _mm256_storeu_pd(red + c + 8, r2);
    _mm256_storeu_pd(red + c + 12, r3);
  }
  for (; c + 4 <= m; c += 4) {
    __m256d r = _mm256_setzero_pd();
    for (size_t j = 0; j < n; ++j) {
      const double* lj = l + j * n;
      double* wj = bw + j * m + c;
      __m256d s = _mm256_loadu_pd(wj);
      for (size_t k = 0; k < j; ++k) {
        s = _mm256_sub_pd(s, _mm256_mul_pd(_mm256_broadcast_sd(lj + k),
                                           _mm256_loadu_pd(bw + k * m + c)));
      }
      s = _mm256_div_pd(s, _mm256_broadcast_sd(lj + j));
      _mm256_storeu_pd(wj, s);
      r = _mm256_add_pd(r, _mm256_mul_pd(s, s));
    }
    _mm256_storeu_pd(red + c, r);
  }
  for (; c < m; ++c) {
    double r = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double sum = bw[j * m + c];
      for (size_t k = 0; k < j; ++k) sum -= l[j * n + k] * bw[k * m + c];
      sum /= l[j * n + j];
      bw[j * m + c] = sum;
      r += sum * sum;
    }
    red[c] = r;
  }
}

void ClampUnitFromTanhIntoAvx2(const double* x, double* out, size_t n) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        _mm256_mul_pd(half, _mm256_add_pd(_mm256_loadu_pd(x + i), one));
    // std::clamp test order: v < lo first, then hi < v; NaN fails both
    // compares and passes through, as in the scalar expression.
    const __m256d lo_mask = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
    const __m256d hi_mask = _mm256_cmp_pd(one, v, _CMP_LT_OQ);
    __m256d r = _mm256_blendv_pd(v, one, hi_mask);
    r = _mm256_blendv_pd(r, zero, lo_mask);
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) {
    const double v = 0.5 * (x[i] + 1.0);
    out[i] = v < 0.0 ? 0.0 : (1.0 < v ? 1.0 : v);
  }
}

void ScaleClampIntoAvx2(const double* x, double factor, double clip,
                        double* out, size_t n) {
  const __m256d f = _mm256_set1_pd(factor);
  const __m256d hi = _mm256_set1_pd(clip);
  const __m256d lo = _mm256_set1_pd(-clip);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_mul_pd(_mm256_loadu_pd(x + i), f);
    const __m256d lo_mask = _mm256_cmp_pd(v, lo, _CMP_LT_OQ);
    const __m256d hi_mask = _mm256_cmp_pd(hi, v, _CMP_LT_OQ);
    __m256d r = _mm256_blendv_pd(v, hi, hi_mask);
    r = _mm256_blendv_pd(r, lo, lo_mask);
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) {
    const double v = x[i] * factor;
    out[i] = v < -clip ? -clip : (clip < v ? clip : v);
  }
}

}  // namespace hunter::linalg::simd

#else  // !(__x86_64__ && __AVX2__)

namespace hunter::linalg::simd {

const bool kHasAvx2Kernels = false;

void AddIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  AddIntoScalar(x, y, out, n);
}
void SubIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  SubIntoScalar(x, y, out, n);
}
void ScaleIntoAvx2(const double* x, double factor, double* out, size_t n) {
  ScaleIntoScalar(x, factor, out, n);
}
void AdamUpdateInPlaceAvx2(double* p, const double* grads, double* m,
                           double* v, size_t n, double scale, double lr,
                           double beta1, double beta2, double bias1,
                           double bias2, double eps) {
  AdamUpdateInPlaceScalar(p, grads, m, v, n, scale, lr, beta1, beta2, bias1,
                          bias2, eps);
}
void ReluIntoAvx2(const double* x, double* out, size_t n) {
  ReluIntoScalar(x, out, n);
}
void ReluGradMulIntoAvx2(const double* g, const double* pre, double* out,
                         size_t n) {
  ReluGradMulIntoScalar(g, pre, out, n);
}
void TanhGradMulIntoAvx2(const double* g, const double* post, double* out,
                         size_t n) {
  TanhGradMulIntoScalar(g, post, out, n);
}
void AccumSquaredCenteredAvx2(const double* x, const double* means,
                              double* acc, size_t n) {
  AccumSquaredCenteredScalar(x, means, acc, n);
}
void StandardizeIntoAvx2(const double* x, const double* means,
                         const double* stds, bool unit_variance, double* out,
                         size_t n) {
  StandardizeIntoScalar(x, means, stds, unit_variance, out, n);
}
void SquaredDistIntoAvx2(double norm_a, const double* norms_b,
                         const double* dots, double* out, size_t n) {
  SquaredDistIntoScalar(norm_a, norms_b, dots, out, n);
}
void ForwardSubstituteLanesAvx2(const double* l, size_t n, double* bw,
                                size_t m, double* red) {
  ForwardSubstituteLanesScalar(l, n, bw, m, red);
}
void ClampUnitFromTanhIntoAvx2(const double* x, double* out, size_t n) {
  ClampUnitFromTanhIntoScalar(x, out, n);
}
void ScaleClampIntoAvx2(const double* x, double factor, double clip,
                        double* out, size_t n) {
  ScaleClampIntoScalar(x, factor, clip, out, n);
}

}  // namespace hunter::linalg::simd

#endif
