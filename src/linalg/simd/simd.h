// Runtime-dispatched vector kernel layer for the dense floating-point hot
// paths: the GEMM micro-kernels, the elementwise Matrix ops, the GP
// squared-distance expansion and many-right-hand-side forward substitution,
// PCA centering/standardization, and the MLP activation / gradient / Adam
// loops.
//
// Every kernel exists twice: a `*Scalar` fallback (always compiled at the
// build's baseline ISA) and a `*Avx2` lane (compiled in dedicated TUs with
// -mavx2 -mfma so the rest of the binary still runs on non-AVX2 hosts). The
// un-suffixed wrappers dispatch per call on common::ActiveSimdTier(), which
// honors HUNTER_FORCE_SCALAR=1 and the in-process testing override.
//
// The bit-exactness contract — the reason this layer can sit under code
// whose tests EXPECT_EQ doubles — rests on two rules:
//
//  1. Vectorize across INDEPENDENT OUTPUT ELEMENTS (column lanes), never
//     across a single element's reduction. A GEMM output element is one
//     accumulator whose contraction index ascends exactly as in the scalar
//     panel; packing eight neighboring accumulators into two YMM registers
//     changes which elements are computed together, not how any one of them
//     rounds. Genuine reductions (dot products, the Cholesky diagonal) stay
//     scalar. A substitution sum stays sequential per right-hand side; when
//     there are many right-hand sides, the lanes are different right-hand
//     sides (ForwardSubstituteLanes).
//  2. No fused contraction. Every kernel issues a separate multiply and
//     add (vmulpd + vaddpd), each rounding to double, exactly like the
//     scalar expression under the tree-wide -ffp-contract=off (see the root
//     CMakeLists.txt). An FMA's single rounding would be "more accurate"
//     and therefore different — the *_vs_scalar equivalence gates demand
//     max_abs_diff 0.0, not "close".
//
// Predicated scalar constructs map to exact vector equivalents:
// `x > 0 ? x : 0` is vmaxpd(x, 0) (maxpd returns the second operand on NaN
// and on ±0 ties, matching the false branch); conditional divides blend the
// divisor (dividing by 1.0 is the identity); std::clamp is reproduced with
// compare+blend in the same test order rather than min/max so NaN inputs
// take the scalar path's value. Transcendentals (exp, tanh) never vectorize
// — libm's polynomials are not reproducible lane-wise — so callers split
// their loops: the algebraic part runs here, the libm call stays scalar.
//
// Raw intrinsics are permitted only in this directory (hunterlint rule
// no-raw-intrinsics-outside-simd).

#ifndef HUNTER_LINALG_SIMD_SIMD_H_
#define HUNTER_LINALG_SIMD_SIMD_H_

#include <cstddef>

#include "common/cpu.h"

namespace hunter::linalg::simd {

// True when the AVX2 TUs were compiled with real AVX2 code (x86-64 build
// with -mavx2 -mfma available); false when they are scalar-forwarding
// stubs. Defined in vec_avx2.cc.
extern const bool kHasAvx2Kernels;

// Should the next kernel invocation take the AVX2 lane? One global load
// plus the cached tier query — cheap enough to evaluate per call.
inline bool DispatchAvx2() {
  return kHasAvx2Kernels &&
         common::ActiveSimdTier() == common::SimdTier::kAvx2Fma;
}

// The tier this process is actually dispatching at (stubs report scalar
// even if the CPU has AVX2), by name and as the index bench_e2e and the
// obs metrics record.
inline const char* ActiveTierName() {
  return common::SimdTierName(DispatchAvx2() ? common::SimdTier::kAvx2Fma
                                             : common::SimdTier::kScalar);
}
inline int ActiveTierIndex() { return DispatchAvx2() ? 1 : 0; }

// ---------------------------------------------------------------------------
// GEMM micro-kernels. Same contracts as linalg::GemmInto/GemmBiasInto/
// GemmTransposedAInto (which are now thin dispatchers over these): row-major
// operands, contraction index ascending per output element.
// ---------------------------------------------------------------------------

void GemmIntoScalar(const double* a, size_t m, size_t k, const double* b,
                    size_t n, bool accumulate, double* out);
void GemmBiasIntoScalar(const double* a, size_t m, size_t k, const double* b,
                        size_t n, const double* bias, double* out);
void GemmTransposedAIntoScalar(const double* a, size_t k, size_t m,
                               const double* b, size_t n, bool accumulate,
                               double* out);

void GemmIntoAvx2(const double* a, size_t m, size_t k, const double* b,
                  size_t n, bool accumulate, double* out);
void GemmBiasIntoAvx2(const double* a, size_t m, size_t k, const double* b,
                      size_t n, const double* bias, double* out);
void GemmTransposedAIntoAvx2(const double* a, size_t k, size_t m,
                             const double* b, size_t n, bool accumulate,
                             double* out);

inline void GemmInto(const double* a, size_t m, size_t k, const double* b,
                     size_t n, bool accumulate, double* out) {
  if (DispatchAvx2()) {
    GemmIntoAvx2(a, m, k, b, n, accumulate, out);
  } else {
    GemmIntoScalar(a, m, k, b, n, accumulate, out);
  }
}

inline void GemmBiasInto(const double* a, size_t m, size_t k, const double* b,
                         size_t n, const double* bias, double* out) {
  if (DispatchAvx2()) {
    GemmBiasIntoAvx2(a, m, k, b, n, bias, out);
  } else {
    GemmBiasIntoScalar(a, m, k, b, n, bias, out);
  }
}

inline void GemmTransposedAInto(const double* a, size_t k, size_t m,
                                const double* b, size_t n, bool accumulate,
                                double* out) {
  if (DispatchAvx2()) {
    GemmTransposedAIntoAvx2(a, k, m, b, n, accumulate, out);
  } else {
    GemmTransposedAIntoScalar(a, k, m, b, n, accumulate, out);
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernels. All of them write out[i] from position i of their
// inputs only, so exact aliasing (out == x or out == y) is permitted — the
// in-place Matrix ops rely on it. Partial overlap is not.
// ---------------------------------------------------------------------------

// out[i] = x[i] + y[i]
void AddIntoScalar(const double* x, const double* y, double* out, size_t n);
void AddIntoAvx2(const double* x, const double* y, double* out, size_t n);

// out[i] = x[i] - y[i]
void SubIntoScalar(const double* x, const double* y, double* out, size_t n);
void SubIntoAvx2(const double* x, const double* y, double* out, size_t n);

// out[i] = x[i] * factor
void ScaleIntoScalar(const double* x, double factor, double* out, size_t n);
void ScaleIntoAvx2(const double* x, double factor, double* out, size_t n);

// One Adam step over a parameter span, replicating the Mlp update
// expression by expression:
//   g       = grads[i] * scale
//   m[i]    = beta1 * m[i] + (1 - beta1) * g
//   v[i]    = beta2 * v[i] + (1 - beta2) * g * g
//   p[i]   -= lr * (m[i] / bias1) / (sqrt(v[i] / bias2) + eps)
// sqrt is vsqrtpd (IEEE correctly rounded, identical to std::sqrt).
void AdamUpdateInPlaceScalar(double* p, const double* grads, double* m,
                             double* v, size_t n, double scale, double lr,
                             double beta1, double beta2, double bias1,
                             double bias2, double eps);
void AdamUpdateInPlaceAvx2(double* p, const double* grads, double* m,
                           double* v, size_t n, double scale, double lr,
                           double beta1, double beta2, double bias1,
                           double bias2, double eps);

// out[i] = x[i] > 0 ? x[i] : 0   (ReLU; vmaxpd matches the ternary exactly,
// including NaN and signed-zero inputs)
void ReluIntoScalar(const double* x, double* out, size_t n);
void ReluIntoAvx2(const double* x, double* out, size_t n);

// out[i] = g[i] * (pre[i] > 0 ? 1 : 0)   (ReLU backward: the multiply is
// kept so -0.0 and NaN gradients flow exactly as in the scalar path)
void ReluGradMulIntoScalar(const double* g, const double* pre, double* out,
                           size_t n);
void ReluGradMulIntoAvx2(const double* g, const double* pre, double* out,
                         size_t n);

// out[i] = g[i] * (1 - post[i] * post[i])   (tanh backward)
void TanhGradMulIntoScalar(const double* g, const double* post, double* out,
                           size_t n);
void TanhGradMulIntoAvx2(const double* g, const double* post, double* out,
                         size_t n);

// acc[i] += d * d with d = x[i] - means[i]   (column variance pass)
void AccumSquaredCenteredScalar(const double* x, const double* means,
                                double* acc, size_t n);
void AccumSquaredCenteredAvx2(const double* x, const double* means,
                              double* acc, size_t n);

// out[i] = x[i] - means[i], divided by stds[i] when unit_variance and
// stds[i] > 1e-12 (the conditional divide becomes a blend of the divisor
// with 1.0 — dividing by 1.0 is exact).
void StandardizeIntoScalar(const double* x, const double* means,
                           const double* stds, bool unit_variance,
                           double* out, size_t n);
void StandardizeIntoAvx2(const double* x, const double* means,
                         const double* stds, bool unit_variance, double* out,
                         size_t n);

// out[i] = max(0, (norm_a + norms_b[i]) - 2 * dots[i]) — the squared-
// distance expansion ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b used by the GP
// kernels. vmaxpd(sq, 0) matches std::max(0.0, sq) exactly (NaN and -0.0
// included). The exp() that follows stays scalar at the call site.
void SquaredDistIntoScalar(double norm_a, const double* norms_b,
                           const double* dots, double* out, size_t n);
void SquaredDistIntoAvx2(double norm_a, const double* norms_b,
                         const double* dots, double* out, size_t n);

// Forward substitution L W = B for m right-hand sides at once — the GP's
// posterior variance for a whole candidate batch. `l` is the n x n
// row-major lower-triangular factor; `bw` is n x m row-major with one
// right-hand side per column, and goes in holding B and comes out holding
// W. red[c] = sum over j ascending (from 0.0) of W(j,c)^2. Each element
// follows the one-vector substitution exactly:
//   sum = B(j,c); sum -= L(j,k) * W(k,c) for k = 0..j-1; W(j,c) = sum / L(j,j)
// The substitution sum stays sequential per right-hand side; the lanes are
// different right-hand sides (rule 1). The AVX2 lane keeps 16 columns in
// four YMM accumulators and reuses each broadcast L(j,k) across them, then
// runs a 4-wide tail and a scalar tail.
void ForwardSubstituteLanesScalar(const double* l, size_t n, double* bw,
                                  size_t m, double* red);
void ForwardSubstituteLanesAvx2(const double* l, size_t n, double* bw,
                                size_t m, double* red);

// out[i] = clamp(0.5 * (x[i] + 1.0), 0, 1) — DDPG's tanh-to-unit-range
// action squash. Reproduces std::clamp's test order with compare+blend
// (v < lo first, then hi < v) so every input, NaN included, takes the
// scalar path's value.
void ClampUnitFromTanhIntoScalar(const double* x, double* out, size_t n);
void ClampUnitFromTanhIntoAvx2(const double* x, double* out, size_t n);

// out[i] = clamp(factor * x[i], -clip, clip) — DDPG's action-gradient
// scale + clip. `clip` must be > 0 (the no-clip case is ScaleInto).
void ScaleClampIntoScalar(const double* x, double factor, double clip,
                          double* out, size_t n);
void ScaleClampIntoAvx2(const double* x, double factor, double clip,
                        double* out, size_t n);

// Dispatching wrappers for the elementwise kernels.

inline void AddInto(const double* x, const double* y, double* out, size_t n) {
  if (DispatchAvx2()) AddIntoAvx2(x, y, out, n);
  else AddIntoScalar(x, y, out, n);
}

inline void SubInto(const double* x, const double* y, double* out, size_t n) {
  if (DispatchAvx2()) SubIntoAvx2(x, y, out, n);
  else SubIntoScalar(x, y, out, n);
}

inline void ScaleInto(const double* x, double factor, double* out, size_t n) {
  if (DispatchAvx2()) ScaleIntoAvx2(x, factor, out, n);
  else ScaleIntoScalar(x, factor, out, n);
}

inline void AdamUpdateInPlace(double* p, const double* grads, double* m,
                              double* v, size_t n, double scale, double lr,
                              double beta1, double beta2, double bias1,
                              double bias2, double eps) {
  if (DispatchAvx2()) {
    AdamUpdateInPlaceAvx2(p, grads, m, v, n, scale, lr, beta1, beta2, bias1,
                          bias2, eps);
  } else {
    AdamUpdateInPlaceScalar(p, grads, m, v, n, scale, lr, beta1, beta2,
                            bias1, bias2, eps);
  }
}

inline void ReluInto(const double* x, double* out, size_t n) {
  if (DispatchAvx2()) ReluIntoAvx2(x, out, n);
  else ReluIntoScalar(x, out, n);
}

inline void ReluGradMulInto(const double* g, const double* pre, double* out,
                            size_t n) {
  if (DispatchAvx2()) ReluGradMulIntoAvx2(g, pre, out, n);
  else ReluGradMulIntoScalar(g, pre, out, n);
}

inline void TanhGradMulInto(const double* g, const double* post, double* out,
                            size_t n) {
  if (DispatchAvx2()) TanhGradMulIntoAvx2(g, post, out, n);
  else TanhGradMulIntoScalar(g, post, out, n);
}

inline void AccumSquaredCentered(const double* x, const double* means,
                                 double* acc, size_t n) {
  if (DispatchAvx2()) AccumSquaredCenteredAvx2(x, means, acc, n);
  else AccumSquaredCenteredScalar(x, means, acc, n);
}

inline void StandardizeInto(const double* x, const double* means,
                            const double* stds, bool unit_variance,
                            double* out, size_t n) {
  if (DispatchAvx2()) {
    StandardizeIntoAvx2(x, means, stds, unit_variance, out, n);
  } else {
    StandardizeIntoScalar(x, means, stds, unit_variance, out, n);
  }
}

inline void SquaredDistInto(double norm_a, const double* norms_b,
                            const double* dots, double* out, size_t n) {
  if (DispatchAvx2()) SquaredDistIntoAvx2(norm_a, norms_b, dots, out, n);
  else SquaredDistIntoScalar(norm_a, norms_b, dots, out, n);
}

inline void ForwardSubstituteLanes(const double* l, size_t n, double* bw,
                                   size_t m, double* red) {
  if (DispatchAvx2()) ForwardSubstituteLanesAvx2(l, n, bw, m, red);
  else ForwardSubstituteLanesScalar(l, n, bw, m, red);
}

inline void ClampUnitFromTanhInto(const double* x, double* out, size_t n) {
  if (DispatchAvx2()) ClampUnitFromTanhIntoAvx2(x, out, n);
  else ClampUnitFromTanhIntoScalar(x, out, n);
}

inline void ScaleClampInto(const double* x, double factor, double clip,
                           double* out, size_t n) {
  if (DispatchAvx2()) ScaleClampIntoAvx2(x, factor, clip, out, n);
  else ScaleClampIntoScalar(x, factor, clip, out, n);
}

}  // namespace hunter::linalg::simd

#endif  // HUNTER_LINALG_SIMD_SIMD_H_
