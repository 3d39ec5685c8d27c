// AVX2 lanes for the elementwise kernels, four doubles per step with a
// scalar tail running the exact fallback expression, and the tier decision
// (DispatchAvx2) that gates every lane in this directory. Compiled with
// -mavx2 -mfma; the #else branch provides scalar-forwarding stubs and a
// decision that never takes them.
//
// Every vector op here is an IEEE-exact lane-wise image of the scalar
// expression: vaddpd/vsubpd/vmulpd/vdivpd/vsqrtpd are correctly rounded per
// lane, multiply+add pairs stay unfused (-ffp-contract=off), vmaxpd's
// second-operand tie/NaN rule is matched to the ternaries it replaces, and
// the ReLU gate is a compare+blend. See simd.h for the per-kernel
// arguments.

#include "linalg/simd/simd.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace hunter::linalg::simd {

namespace {

// The decision runs before anything knows the CPU has AVX, so it is
// compiled for the baseline ISA, like the code that calls it.
__attribute__((target("no-avx"))) bool HostAllowsAvx2() {
  if (__builtin_cpu_supports("avx2") == 0 ||
      __builtin_cpu_supports("fma") == 0) {
    return false;
  }
  const char* force = std::getenv("HUNTER_FORCE_SCALAR");
  return force == nullptr || force[0] == '\0' || std::strcmp(force, "0") == 0;
}

// Rule 3 on four lanes: every NaN becomes the canonical quiet NaN.
__m256d CanonicalNan4(__m256d v) {
  return _mm256_blendv_pd(
      v, _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()),
      _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
}

}  // namespace

__attribute__((target("no-avx"))) bool DispatchAvx2() {
  static const bool use_avx2 = HostAllowsAvx2();
  return use_avx2;
}

void AddIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
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
    _mm256_storeu_pd(red + c, CanonicalNan4(r0));
    _mm256_storeu_pd(red + c + 4, CanonicalNan4(r1));
    _mm256_storeu_pd(red + c + 8, CanonicalNan4(r2));
    _mm256_storeu_pd(red + c + 12, CanonicalNan4(r3));
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
    _mm256_storeu_pd(red + c, CanonicalNan4(r));
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
    red[c] = CanonicalNan(r);
  }
}

size_t CholeskyLanesAvx2(const double* a, size_t n, double* l) {
  for (size_t j = 0; j < n; ++j) {
    // Row j: L(j,0..j-1) left of the diagonal (copied in as each column
    // completed), column j's working copy right of it.
    double* lj = l + j * n;
    double sum = a[j * n + j];
    for (size_t k = 0; k < j; ++k) sum -= lj[k] * lj[k];
    if (sum <= 0.0) return j;
    const double diag = CanonicalNan(std::sqrt(sum));
    lj[j] = diag;
    for (size_t i = j + 1; i < n; ++i) lj[i] = a[i * n + j];

    // Rows i > j as lanes: lj[i] -= L(j,k) * L(i,k), k ascending, where
    // L(i,k) for 16 consecutive rows is l[k * n + i .. i + 15].
    const __m256d d = _mm256_set1_pd(diag);
    size_t i = j + 1;
    for (; i + 16 <= n; i += 16) {
      __m256d s0 = _mm256_loadu_pd(lj + i);
      __m256d s1 = _mm256_loadu_pd(lj + i + 4);
      __m256d s2 = _mm256_loadu_pd(lj + i + 8);
      __m256d s3 = _mm256_loadu_pd(lj + i + 12);
      for (size_t k = 0; k < j; ++k) {
        const __m256d ljk = _mm256_broadcast_sd(lj + k);
        const double* lk = l + k * n + i;
        s0 = _mm256_sub_pd(s0, _mm256_mul_pd(ljk, _mm256_loadu_pd(lk)));
        s1 = _mm256_sub_pd(s1, _mm256_mul_pd(ljk, _mm256_loadu_pd(lk + 4)));
        s2 = _mm256_sub_pd(s2, _mm256_mul_pd(ljk, _mm256_loadu_pd(lk + 8)));
        s3 = _mm256_sub_pd(s3, _mm256_mul_pd(ljk, _mm256_loadu_pd(lk + 12)));
      }
      _mm256_storeu_pd(lj + i, CanonicalNan4(_mm256_div_pd(s0, d)));
      _mm256_storeu_pd(lj + i + 4, CanonicalNan4(_mm256_div_pd(s1, d)));
      _mm256_storeu_pd(lj + i + 8, CanonicalNan4(_mm256_div_pd(s2, d)));
      _mm256_storeu_pd(lj + i + 12, CanonicalNan4(_mm256_div_pd(s3, d)));
    }
    for (; i + 4 <= n; i += 4) {
      __m256d s = _mm256_loadu_pd(lj + i);
      for (size_t k = 0; k < j; ++k) {
        s = _mm256_sub_pd(s, _mm256_mul_pd(_mm256_broadcast_sd(lj + k),
                                           _mm256_loadu_pd(l + k * n + i)));
      }
      _mm256_storeu_pd(lj + i, CanonicalNan4(_mm256_div_pd(s, d)));
    }
    for (; i < n; ++i) {
      double s = lj[i];
      for (size_t k = 0; k < j; ++k) s -= lj[k] * l[k * n + i];
      lj[i] = CanonicalNan(s / diag);
    }
    for (i = j + 1; i < n; ++i) l[i * n + j] = lj[i];
  }
  for (size_t j = 0; j < n; ++j) {
    std::fill(l + j * n + j + 1, l + (j + 1) * n, 0.0);
  }
  return n;
}

}  // namespace hunter::linalg::simd

#else  // !(__x86_64__ && __AVX2__)

namespace hunter::linalg::simd {

bool DispatchAvx2() { return false; }

void AddIntoAvx2(const double* x, const double* y, double* out, size_t n) {
  AddIntoScalar(x, y, out, n);
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
void SquaredDistIntoAvx2(double norm_a, const double* norms_b,
                         const double* dots, double* out, size_t n) {
  SquaredDistIntoScalar(norm_a, norms_b, dots, out, n);
}
void ForwardSubstituteLanesAvx2(const double* l, size_t n, double* bw,
                                size_t m, double* red) {
  ForwardSubstituteLanesScalar(l, n, bw, m, red);
}
size_t CholeskyLanesAvx2(const double* a, size_t n, double* l) {
  return CholeskyLanesScalar(a, n, l);
}

}  // namespace hunter::linalg::simd

#endif
