// Scalar GEMM fallback: the register-tiled panel kernels that used to live
// in linalg/matrix.cc, moved here verbatim so the dispatch layer owns both
// lanes. Always compiled at the build's baseline ISA; this is what runs
// under HUNTER_FORCE_SCALAR=1 and on hosts without AVX2, and what the AVX2
// lane is bit-compared against.

#include "linalg/simd/simd.h"

namespace hunter::linalg::simd {

namespace {

// Both kernels register-block a 4-row x 32-column output tile: the tile is
// read once, accumulated in a fixed-size local array, and stored once,
// instead of re-streaming the output row through memory on every step of
// the contraction. The contraction index still ascends for every
// individual output element, so blocking changes no rounding — results
// stay bit-identical to the plain triple loop (see matrix.h's contract).
constexpr size_t kRowBlock = 4;
constexpr size_t kColTile = 32;

// How a panel's accumulator tile starts: from the existing contents of
// `out` (accumulate mode), from zero (plain product — no zero-fill pass
// over `out` is needed since every element is stored exactly once), or
// from a broadcast bias row (the layer-forward kernel).
enum class PanelInit { kLoad, kZero, kBias };

// One column panel [j0, j0 + jw) of the output. kJw is kColTile for full
// panels — the constant inner trip counts let the compiler emit
// straight-line vector code over the register-held accumulator — and 0 for
// the ragged right edge, which falls back to runtime-width loops.
// kTransposedA selects how the contraction reads A: row-major (C = A B,
// the contraction walks a row of A) or transposed (C = A^T B, it walks a
// column of the k x m operand). Either way the contraction index kk
// ascends: the textbook dot-product order, which the AVX2 tier reproduces
// bit for bit and the golden training digests in tests/ml/ pin.
// hunterlint: hot
template <bool kTransposedA, size_t kJw, PanelInit kInit>
void GemmPanel(const double* __restrict a, size_t m, size_t k,
               const double* __restrict b, size_t n, size_t j0, size_t jw_in,
               const double* __restrict bias, double* __restrict out) {
  const size_t jw = kJw != 0 ? kJw : jw_in;
  size_t i = 0;
  for (; i + kRowBlock <= m; i += kRowBlock) {
    double acc[kRowBlock][kColTile];
    for (size_t ib = 0; ib < kRowBlock; ++ib) {
      const double* out_row = out + (i + ib) * n + j0;
      for (size_t j = 0; j < jw; ++j) {
        acc[ib][j] = kInit == PanelInit::kLoad   ? out_row[j]
                     : kInit == PanelInit::kBias ? bias[j0 + j]
                                                 : 0.0;
      }
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const double* b_row = b + kk * n + j0;
      for (size_t ib = 0; ib < kRowBlock; ++ib) {
        const double a_ik =
            kTransposedA ? a[kk * m + i + ib] : a[(i + ib) * k + kk];
        for (size_t j = 0; j < jw; ++j) acc[ib][j] += a_ik * b_row[j];
      }
    }
    for (size_t ib = 0; ib < kRowBlock; ++ib) {
      double* out_row = out + (i + ib) * n + j0;
      for (size_t j = 0; j < jw; ++j) out_row[j] = acc[ib][j];
    }
  }
  for (; i < m; ++i) {
    double acc[kColTile];
    double* out_row = out + i * n + j0;
    for (size_t j = 0; j < jw; ++j) {
      acc[j] = kInit == PanelInit::kLoad   ? out_row[j]
               : kInit == PanelInit::kBias ? bias[j0 + j]
                                           : 0.0;
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const double a_ik = kTransposedA ? a[kk * m + i] : a[i * k + kk];
      const double* b_row = b + kk * n + j0;
      for (size_t j = 0; j < jw; ++j) acc[j] += a_ik * b_row[j];
    }
    for (size_t j = 0; j < jw; ++j) out_row[j] = acc[j];
  }
}

// hunterlint: hot
template <bool kTransposedA, PanelInit kInit>
void GemmDispatch(const double* __restrict a, size_t m, size_t k,
                  const double* __restrict b, size_t n,
                  const double* __restrict bias, double* __restrict out) {
  size_t j0 = 0;
  for (; j0 + kColTile <= n; j0 += kColTile) {
    GemmPanel<kTransposedA, kColTile, kInit>(a, m, k, b, n, j0, kColTile, bias,
                                             out);
  }
  // The ragged right edge decomposes into constant-width sub-panels (one
  // 16-wide panel, then 2-wide pairs, then a final single column) instead
  // of one runtime-width panel: variable trip counts force masked,
  // partially-unrolled vector code that measures several times slower than
  // the straight-line constant-width panels. Widths 8 and 4 are skipped on
  // purpose — GCC's vectorizer emits pathologically slow code for those
  // trip counts (measured slower than a full 32-wide panel) while 16, 2
  // and 1 are all near the per-column cost of the main tile. Column
  // decomposition only partitions output elements between panels — each
  // element's contraction is untouched, so results are still bit-identical.
  if (j0 + 16 <= n) {
    GemmPanel<kTransposedA, 16, kInit>(a, m, k, b, n, j0, 16, bias, out);
    j0 += 16;
  }
  for (; j0 + 2 <= n; j0 += 2) {
    GemmPanel<kTransposedA, 2, kInit>(a, m, k, b, n, j0, 2, bias, out);
  }
  if (j0 < n) {
    GemmPanel<kTransposedA, 1, kInit>(a, m, k, b, n, j0, 1, bias, out);
  }
}

}  // namespace

void GemmIntoScalar(const double* a, size_t m, size_t k, const double* b,
                    size_t n, bool accumulate, double* out) {
  if (accumulate) {
    GemmDispatch<false, PanelInit::kLoad>(a, m, k, b, n, nullptr, out);
  } else {
    GemmDispatch<false, PanelInit::kZero>(a, m, k, b, n, nullptr, out);
  }
}

void GemmBiasIntoScalar(const double* a, size_t m, size_t k, const double* b,
                        size_t n, const double* bias, double* out) {
  GemmDispatch<false, PanelInit::kBias>(a, m, k, b, n, bias, out);
}

void GemmTransposedAIntoScalar(const double* a, size_t k, size_t m,
                               const double* b, size_t n, bool accumulate,
                               double* out) {
  // Contraction over the shared leading row index r of the k x m operand,
  // ascending: batch rows add into a parameter gradient in order, as the
  // golden training digests in tests/ml/ were recorded.
  if (accumulate) {
    GemmDispatch<true, PanelInit::kLoad>(a, m, k, b, n, nullptr, out);
  } else {
    GemmDispatch<true, PanelInit::kZero>(a, m, k, b, n, nullptr, out);
  }
}

}  // namespace hunter::linalg::simd
