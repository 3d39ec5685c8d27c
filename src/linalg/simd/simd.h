// Runtime-dispatched vector kernel layer for the dense floating-point hot
// paths, ten kernels:
//   - the three GEMMs, GemmInto, GemmBiasInto and GemmTransposedAInto (MLP
//     batches, covariance, GP Gram rows);
//   - AddInto (ColumnMeans' sums, the MLP's bias gradients) and the MLP's
//     ReluInto, ReluGradMulInto and AdamUpdateInPlace;
//   - the GP's SquaredDistInto, ForwardSubstituteLanes (batched posterior
//     variance) and CholeskyLanes (the refit's factorization).
// Elementwise loops that see little traffic (the PCA centering and
// standardization, the tanh backward, DDPG's 20-wide action squash and
// clip) are plain loops at their call sites; DESIGN.md §14 has the
// measured traffic and the rule for which loops get a lane.
//
// Every kernel exists twice: a `*Scalar` fallback (always compiled at the
// build's baseline ISA) and a `*Avx2` lane (compiled in dedicated TUs with
// -mavx2 -mfma so the rest of the binary still runs on non-AVX2 hosts). The
// un-suffixed wrappers are the one entry point per kernel; they dispatch per
// call on DispatchAvx2(), the process's one tier decision.
//
// The bit-exactness contract — the reason this layer can sit under code
// whose tests EXPECT_EQ doubles — rests on three rules:
//
//  1. Vectorize across INDEPENDENT OUTPUT ELEMENTS (column lanes), never
//     across a single element's reduction. A GEMM output element is one
//     accumulator whose contraction index ascends exactly as in the scalar
//     panel; packing eight neighboring accumulators into two YMM registers
//     changes which elements are computed together, not how any one of them
//     rounds. Genuine reductions (dot products, the Cholesky diagonal) stay
//     scalar. A substitution sum stays sequential per right-hand side; when
//     there are many right-hand sides, the lanes are different right-hand
//     sides (ForwardSubstituteLanes). The entries below a Cholesky pivot
//     are independent outputs too, so rows are lanes (CholeskyLanes).
//  2. No fused contraction. Every kernel issues a separate multiply and
//     add (vmulpd + vaddpd), each rounding to double, exactly like the
//     scalar expression under the tree-wide -ffp-contract=off (see the root
//     CMakeLists.txt). An FMA's single rounding would be "more accurate"
//     and therefore different — the *_vs_scalar equivalence gates demand
//     max_abs_diff 0.0, not "close".
//  3. One NaN where two NaNs meet in a commutative operation. When both
//     operands of an add or multiply are NaN, x86 returns the first one,
//     and the compiler chooses the operand order of a scalar `a + b` freely
//     (GCC picks differently at -O0 and -O3). So an output that can receive
//     two different NaNs through such an operation — ForwardSubstituteLanes'
//     sums of squares, CholeskyLanes' factor, whose products multiply two
//     factor entries — is written as the canonical quiet NaN
//     (std::numeric_limits<double>::quiet_NaN()) wherever it is NaN, at both
//     tiers. NaN-ness itself never depends on operand order. Outputs that
//     only subtract, divide, or multiply by a finite operand keep their NaN
//     bits: there the first operand is fixed by the expression.
//
// Predicated scalar constructs map to exact vector equivalents:
// `x > 0 ? x : 0` is vmaxpd(x, 0) (maxpd returns the second operand on NaN
// and on ±0 ties, matching the false branch), and `p > 0 ? 1 : 0` is a
// compare+blend. Transcendentals (exp, tanh) never vectorize — libm's
// polynomials are not reproducible lane-wise — so callers split their
// loops: the GP's squared distances run here, its exp() stays scalar.
//
// Raw intrinsics are permitted only in this directory (hunterlint rule
// no-raw-intrinsics-outside-simd).

#ifndef HUNTER_LINALG_SIMD_SIMD_H_
#define HUNTER_LINALG_SIMD_SIMD_H_

#include <cstddef>
#include <limits>

namespace hunter::linalg::simd {

// True when the un-suffixed entry points below run the AVX2 lanes: the CPU
// has AVX2 and FMA, the *_avx2.cc TUs were compiled with real kernels (not
// the scalar-forwarding stubs a build without -mavx2 gets), and
// HUNTER_FORCE_SCALAR is unset, empty or "0". Decided once per process, on
// the first call, in vec_avx2.cc next to the lanes it gates.
// HUNTER_FORCE_SCALAR=1 is the only tier switch: the force_scalar ctest
// twins use it to run the scalar tier on an AVX2 host.
bool DispatchAvx2();

// The tier this process dispatches at, by name and as the index bench_e2e
// records: "scalar" (0) or "avx2+fma" (1).
inline const char* ActiveTierName() {
  return DispatchAvx2() ? "avx2+fma" : "scalar";
}
inline int ActiveTierIndex() { return DispatchAvx2() ? 1 : 0; }

// Rule 3's canonical NaN: `v` unless it is NaN, else the one quiet NaN.
inline double CanonicalNan(double v) {
  return v == v ? v : std::numeric_limits<double>::quiet_NaN();
}

// ---------------------------------------------------------------------------
// GEMM kernels over row-major operands. Every output element is one
// accumulator whose contraction index ascends, exactly like a textbook
// dot-product loop, at both tiers: this keeps a batched MLP forward row
// equal to Mlp::Predict and the golden training and GP digests in tests/ml/
// (recorded from the former per-sample paths) valid.
//
// GemmInto: `a` is (m x k), `b` is (k x n), `out` is (m x n). With
// `accumulate` the kernel adds into the existing contents of `out`;
// otherwise `out` is zeroed first.
//
// GemmBiasInto: out = broadcast(bias) + a * b. Every output row starts from
// the length-n `bias` row and the contraction then accumulates on top, k
// ascending: the same order as seeding `out` with the bias and calling
// GemmInto in accumulate mode, without the extra pass over `out`. This is
// the layer-forward kernel, pre = bias + x * W^T.
//
// GemmTransposedAInto: out (+)= a^T * b, where `a` is (k x m) and `b` is
// (k x n). The contraction runs over the leading (row) index of both,
// ascending, so batch rows add into a parameter gradient in order.
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
// inputs only, so exact aliasing (out == x or out == y) is permitted —
// ColumnMeans and the MLP bias gradient accumulate in place through
// AddInto. Partial overlap is not.
// ---------------------------------------------------------------------------

// out[i] = x[i] + y[i]
void AddIntoScalar(const double* x, const double* y, double* out, size_t n);
void AddIntoAvx2(const double* x, const double* y, double* out, size_t n);

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
// runs a 4-wide tail and a scalar tail. A NaN in red is written as the
// canonical quiet NaN (rule 3): its sum adds two squares that may be
// different NaNs.
void ForwardSubstituteLanesScalar(const double* l, size_t n, double* bw,
                                  size_t m, double* red);
void ForwardSubstituteLanesAvx2(const double* l, size_t n, double* bw,
                                size_t m, double* red);

// Cholesky factorization A = L Lᵀ with rows as lanes. `a` is n x n
// row-major (only its lower triangle is read), `l` receives the n x n
// row-major factor with zeros above the diagonal. Returns n on success, or
// the first pivot j whose sum is <= 0 (the matrix is not numerically SPD);
// `l` is then unspecified. Each entry is the row-order loop's:
//   sum = A(i,j); sum -= L(i,k) * L(j,k) for k = 0..j-1;
//   L(j,j) = sqrt(sum); L(i,j) = sum / L(j,j) for i > j
// and every NaN written to `l` is the canonical quiet NaN (rule 3).
//
// The scalar twin is that loop, row by row. The AVX2 lane runs column by
// column: the diagonal stays a scalar chain (rule 1), and the entries below
// it are independent outputs, so 16 rows at a time share each broadcast
// L(j,k) across four YMM accumulators, then a 4-wide tail and a scalar
// tail follow. Each lane still subtracts the same products in ascending k
// and divides by the same L(j,j) as the row-order loop; only which rows run
// together changes. While column j is in use, its entries below the
// diagonal live in row j of l's strict upper triangle (so 16 rows of column
// k are one contiguous load), and as it completes it is copied into the
// lower triangle (so row j's L(j,0..j-1) is contiguous for the diagonal
// chain and the broadcasts). The upper triangle is zeroed at the end.
size_t CholeskyLanesScalar(const double* a, size_t n, double* l);
size_t CholeskyLanesAvx2(const double* a, size_t n, double* l);

// Dispatching wrappers for the elementwise kernels.

inline void AddInto(const double* x, const double* y, double* out, size_t n) {
  if (DispatchAvx2()) AddIntoAvx2(x, y, out, n);
  else AddIntoScalar(x, y, out, n);
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

inline size_t CholeskyLanes(const double* a, size_t n, double* l) {
  if (DispatchAvx2()) return CholeskyLanesAvx2(a, n, l);
  return CholeskyLanesScalar(a, n, l);
}

}  // namespace hunter::linalg::simd

#endif  // HUNTER_LINALG_SIMD_SIMD_H_
