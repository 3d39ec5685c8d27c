// Bit-identity tests for the runtime-dispatched vector kernel layer
// (linalg/simd/). Every AVX2 lane is compared against its scalar fallback
// at tolerance zero — not "close", the same 64 bits — across ragged sizes
// that cover every vector-width remainder (8-wide strips, 4-wide strips,
// the 6-row GEMM tile, and scalar tails). On hosts without AVX2 the lanes
// are scalar-forwarding stubs and the comparisons are trivially exact, so
// the suite passes everywhere; it only *proves* something on AVX2 hardware
// and in the HUNTER_FORCE_SCALAR=1 duplicate run (ctest label
// force_scalar), which pins the dispatchers to the fallback.

#include "linalg/simd/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "linalg/matrix.h"

namespace hunter::linalg::simd {
namespace {

using hunter::common::Rng;

// Exact bit-pattern comparison: EXPECT_EQ on doubles would call -0.0 equal
// to +0.0 and NaN unequal to itself, but the kernel contract is the same
// bits, NaNs and signed zeros included.
uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitsEqual(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "index " << i;
  }
}

// Sizes covering every remainder of the 8- and 4-wide strips plus long
// runs: 0 and 1 (degenerate), 2..9 (every tail length), and larger sizes
// that exercise multiple full vectors before the tail.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 64};

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-2.0, 2.0);
  // Sprinkle exact and signed zeros so the tests cover the tie cases the
  // kernels promise to preserve.
  if (n > 2) v[n / 2] = 0.0;
  if (n > 3) v[n / 3] = -0.0;
  return v;
}

TEST(SimdElementwiseTest, AddBitIdentical) {
  Rng rng(0x51D001);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    const std::vector<double> y = RandomVec(n, &rng);
    std::vector<double> a(n), b(n);

    AddIntoScalar(x.data(), y.data(), a.data(), n);
    AddIntoAvx2(x.data(), y.data(), b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdElementwiseTest, ExactAliasingInPlace) {
  // ColumnMeans and the MLP bias gradient pass out == x; the kernels must
  // tolerate it.
  Rng rng(0x51D002);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> a = x, b = x;
    AddIntoScalar(a.data(), a.data(), a.data(), n);
    AddIntoAvx2(b.data(), b.data(), b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdElementwiseTest, UnalignedOffsetsBitIdentical) {
  // All loads/stores are unaligned by contract; walk every offset of a
  // 64-byte line to prove it.
  Rng rng(0x51D003);
  const std::vector<double> x = RandomVec(64, &rng);
  const std::vector<double> y = RandomVec(64, &rng);
  for (size_t off = 0; off < 8; ++off) {
    const size_t n = 33;
    std::vector<double> a(64), b(64);
    AddIntoScalar(x.data() + off, y.data() + off, a.data() + off, n);
    AddIntoAvx2(x.data() + off, y.data() + off, b.data() + off, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(a[off + i]), Bits(b[off + i])) << off << "+" << i;
    }
  }
}

TEST(SimdActivationTest, ReluAndGradsBitIdentical) {
  Rng rng(0x51D004);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    const std::vector<double> g = RandomVec(n, &rng);
    std::vector<double> a(n), b(n);

    ReluIntoScalar(x.data(), a.data(), n);
    ReluIntoAvx2(x.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    ReluGradMulIntoScalar(g.data(), x.data(), a.data(), n);
    ReluGradMulIntoAvx2(g.data(), x.data(), b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdActivationTest, SpecialValuesBitIdentical) {
  // The predicated kernels document exact NaN / signed-zero / infinity
  // behavior (vmaxpd operand order, the ReLU gate's compare+blend) — hold
  // them to it bit for bit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const std::vector<double> x = {nan, -nan, inf,  -inf, 0.0, -0.0,
                                 den, -den, 1e21, -3.0, 0.5, -0.25, 2.0};
  const std::vector<double> g = {1.0, -2.0, nan, 0.5,  -0.0, inf, 3.0,
                                 0.0, -1.5, den, -inf, 4.0,  -4.0};
  const size_t n = x.size();
  std::vector<double> a(n), b(n);

  ReluIntoScalar(x.data(), a.data(), n);
  ReluIntoAvx2(x.data(), b.data(), n);
  ExpectBitsEqual(a, b);

  ReluGradMulIntoScalar(g.data(), x.data(), a.data(), n);
  ReluGradMulIntoAvx2(g.data(), x.data(), b.data(), n);
  ExpectBitsEqual(a, b);

  SquaredDistIntoScalar(1.5, x.data(), g.data(), a.data(), n);
  SquaredDistIntoAvx2(1.5, x.data(), g.data(), b.data(), n);
  ExpectBitsEqual(a, b);
}

TEST(SimdStatsTest, SquaredDistBitIdentical) {
  Rng rng(0x51D005);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    const std::vector<double> dots = RandomVec(n, &rng);
    std::vector<double> a(n), b(n);
    SquaredDistIntoScalar(2.25, x.data(), dots.data(), a.data(), n);
    SquaredDistIntoAvx2(2.25, x.data(), dots.data(), b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdAdamTest, AdamUpdateBitIdentical) {
  Rng rng(0x51D006);
  for (size_t n : kSizes) {
    const std::vector<double> grads = RandomVec(n, &rng);
    const std::vector<double> p0 = RandomVec(n, &rng);
    std::vector<double> m0 = RandomVec(n, &rng);
    std::vector<double> v0 = RandomVec(n, &rng);
    for (double& v : v0) v = std::abs(v);  // second moment is nonnegative

    std::vector<double> pa = p0, ma = m0, va = v0;
    std::vector<double> pb = p0, mb = m0, vb = v0;
    const double scale = 1.0 / 32.0, lr = 1e-3, b1 = 0.9, b2 = 0.999;
    const double bias1 = 1.0 - 0.9 * 0.9, bias2 = 1.0 - 0.999 * 0.999;
    AdamUpdateInPlaceScalar(pa.data(), grads.data(), ma.data(), va.data(), n,
                            scale, lr, b1, b2, bias1, bias2, 1e-8);
    AdamUpdateInPlaceAvx2(pb.data(), grads.data(), mb.data(), vb.data(), n,
                          scale, lr, b1, b2, bias1, bias2, 1e-8);
    ExpectBitsEqual(pa, pb);
    ExpectBitsEqual(ma, mb);
    ExpectBitsEqual(va, vb);
  }
}

// GEMM shapes covering the 6-row tile boundary, the 8- and 4-column strip
// boundaries, and the scalar column tail — plus degenerate edges.
struct GemmShape {
  size_t m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},  {2, 3, 4},   {5, 7, 9},    {6, 8, 8},    {7, 9, 17},
    {12, 16, 24}, {13, 5, 11}, {3, 64, 33}, {17, 31, 20}, {6, 1, 8},
    {1, 16, 5},  {31, 2, 3},  {19, 24, 40},
};

TEST(SimdGemmTest, GemmIntoBitIdentical) {
  Rng rng(0x51D007);
  for (const GemmShape& s : kGemmShapes) {
    const std::vector<double> a = RandomVec(s.m * s.k, &rng);
    const std::vector<double> b = RandomVec(s.k * s.n, &rng);
    const std::vector<double> seed = RandomVec(s.m * s.n, &rng);
    for (const bool accumulate : {false, true}) {
      std::vector<double> out_s = seed, out_v = seed;
      GemmIntoScalar(a.data(), s.m, s.k, b.data(), s.n, accumulate,
                     out_s.data());
      GemmIntoAvx2(a.data(), s.m, s.k, b.data(), s.n, accumulate,
                   out_v.data());
      ExpectBitsEqual(out_s, out_v);
    }
  }
}

TEST(SimdGemmTest, GemmBiasIntoBitIdentical) {
  Rng rng(0x51D008);
  for (const GemmShape& s : kGemmShapes) {
    const std::vector<double> a = RandomVec(s.m * s.k, &rng);
    const std::vector<double> b = RandomVec(s.k * s.n, &rng);
    const std::vector<double> bias = RandomVec(s.n, &rng);
    std::vector<double> out_s(s.m * s.n), out_v(s.m * s.n);
    GemmBiasIntoScalar(a.data(), s.m, s.k, b.data(), s.n, bias.data(),
                       out_s.data());
    GemmBiasIntoAvx2(a.data(), s.m, s.k, b.data(), s.n, bias.data(),
                     out_v.data());
    ExpectBitsEqual(out_s, out_v);
  }
}

TEST(SimdGemmTest, GemmTransposedAIntoBitIdentical) {
  Rng rng(0x51D009);
  for (const GemmShape& s : kGemmShapes) {
    // a is stored k x m (transposed operand).
    const std::vector<double> a = RandomVec(s.k * s.m, &rng);
    const std::vector<double> b = RandomVec(s.k * s.n, &rng);
    const std::vector<double> seed = RandomVec(s.m * s.n, &rng);
    for (const bool accumulate : {false, true}) {
      std::vector<double> out_s = seed, out_v = seed;
      GemmTransposedAIntoScalar(a.data(), s.k, s.m, b.data(), s.n, accumulate,
                                out_s.data());
      GemmTransposedAIntoAvx2(a.data(), s.k, s.m, b.data(), s.n, accumulate,
                              out_v.data());
      ExpectBitsEqual(out_s, out_v);
    }
  }
}

// out(i, j) = start(i, j) + Σ a(i, kk)·b(kk, j) over kk ascending, each
// product and sum rounded on its own: the textbook triple loop of
// matrix.h's numeric contract. `a` is m x k, or k x m when `transposed_a`.
std::vector<double> TextbookGemm(const std::vector<double>& a,
                                 bool transposed_a, size_t m, size_t k,
                                 const std::vector<double>& b, size_t n,
                                 std::vector<double> start) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = start[i * n + j];
      for (size_t kk = 0; kk < k; ++kk) {
        acc += (transposed_a ? a[kk * m + i] : a[i * k + kk]) * b[kk * n + j];
      }
      start[i * n + j] = acc;
    }
  }
  return start;
}

// The dispatched entry points (GemmInto in both accumulate modes,
// GemmBiasInto, GemmTransposedAInto) equal the textbook loop bit for bit:
// at the host's tier here, at the scalar tier in the force_scalar twin.
// The shapes are the tile-boundary set above plus one 128³ product.
TEST(SimdGemmTest, EntryPointsMatchTextbookLoopBitForBit) {
  Rng rng(0x51D00A);
  std::vector<GemmShape> shapes(std::begin(kGemmShapes),
                                std::end(kGemmShapes));
  shapes.push_back({128, 128, 128});
  for (const GemmShape& s : shapes) {
    // `a` serves as m x k and, for the transposed entry point, as k x m.
    const std::vector<double> a = RandomVec(s.m * s.k, &rng);
    const std::vector<double> b = RandomVec(s.k * s.n, &rng);
    const std::vector<double> seed = RandomVec(s.m * s.n, &rng);
    const std::vector<double> bias = RandomVec(s.n, &rng);
    const std::vector<double> zeros(s.m * s.n, 0.0);
    for (const bool accumulate : {false, true}) {
      const std::vector<double>& start = accumulate ? seed : zeros;
      std::vector<double> out = seed;
      GemmInto(a.data(), s.m, s.k, b.data(), s.n, accumulate, out.data());
      ExpectBitsEqual(TextbookGemm(a, false, s.m, s.k, b, s.n, start), out);
      out = seed;
      GemmTransposedAInto(a.data(), s.k, s.m, b.data(), s.n, accumulate,
                          out.data());
      ExpectBitsEqual(TextbookGemm(a, true, s.m, s.k, b, s.n, start), out);
    }
    std::vector<double> bias_rows(s.m * s.n);
    for (size_t i = 0; i < s.m; ++i) {
      std::copy(bias.begin(), bias.end(), bias_rows.begin() + i * s.n);
    }
    std::vector<double> out(s.m * s.n);
    GemmBiasInto(a.data(), s.m, s.k, b.data(), s.n, bias.data(), out.data());
    ExpectBitsEqual(TextbookGemm(a, false, s.m, s.k, b, s.n, bias_rows), out);
  }
}

// A random SPD matrix MᵀM + n·I, every entry carrying a full mantissa.
Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix mat(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) mat.At(r, c) = rng->Uniform(-1.0, 1.0);
  }
  Matrix spd = mat.Transpose().Multiply(mat);
  for (size_t i = 0; i < n; ++i) spd.At(i, i) += static_cast<double>(n);
  return spd;
}

// A well-conditioned n x n lower-triangular factor, as the GP passes.
Matrix RandomCholeskyFactor(size_t n, Rng* rng) {
  Matrix lower;
  EXPECT_TRUE(Cholesky(RandomSpd(n, rng), &lower));
  return lower;
}

// The one-vector forward substitution each lane must reproduce: column c
// of `b` solved on its own, written into `w` (n x m) and `red`.
void ForwardSubstituteOneByOne(const Matrix& l, const std::vector<double>& b,
                               size_t m, std::vector<double>* w,
                               std::vector<double>* red) {
  const size_t n = l.rows();
  w->assign(n * m, 0.0);
  red->assign(m, 0.0);
  std::vector<double> column(n);
  for (size_t c = 0; c < m; ++c) {
    double reduction = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double sum = b[j * m + c];
      for (size_t k = 0; k < j; ++k) sum -= l.At(j, k) * column[k];
      column[j] = sum / l.At(j, j);
      reduction += column[j] * column[j];
      (*w)[j * m + c] = column[j];
    }
    (*red)[c] = CanonicalNan(reduction);
  }
}

// Runs both tiers on copies of `b` (red pre-filled with NaN, which the
// kernel must overwrite) and requires the same bits as the one-vector
// substitution: `bw` goes in as B and comes out as W.
void ExpectLanesMatchOneByOne(const Matrix& l, const std::vector<double>& b,
                              size_t m) {
  const size_t n = l.rows();
  std::vector<double> w_ref, red_ref;
  ForwardSubstituteOneByOne(l, b, m, &w_ref, &red_ref);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> w_scalar = b, red_scalar(m, nan);
  ForwardSubstituteLanesScalar(l.Data(), n, w_scalar.data(), m,
                               red_scalar.data());
  std::vector<double> w_avx2 = b, red_avx2(m, nan);
  ForwardSubstituteLanesAvx2(l.Data(), n, w_avx2.data(), m, red_avx2.data());
  ExpectBitsEqual(w_scalar, w_ref);
  ExpectBitsEqual(red_scalar, red_ref);
  ExpectBitsEqual(w_avx2, w_scalar);
  ExpectBitsEqual(red_avx2, red_scalar);
}

TEST(SimdSolveTest, ForwardSubstituteLanesBitIdentical) {
  // Every m from 0 to 35 covers the 16-lane panel, the 4-wide tail and the
  // scalar tail in every combination; n = 0 leaves B untouched and red 0.
  Rng rng(0x51D00C);
  for (const size_t n : {0, 1, 2, 5, 33}) {
    const Matrix l = RandomCholeskyFactor(n, &rng);
    for (size_t m = 0; m <= 35; ++m) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " m=" << m);
      ExpectLanesMatchOneByOne(l, RandomVec(n * m, &rng), m);
    }
  }
}

TEST(SimdSolveTest, ForwardSubstituteLanesSpecialValuesBitIdentical) {
  // Non-finite and tiny right-hand sides propagate through later rows of
  // their own column only; W's NaN signs and payloads must match per lane,
  // and every NaN sum of squares is the canonical NaN (simd.h rule 3).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {nan, -nan, inf, -inf, 0.0,
                                        -0.0, den, -den, 1e-310, -1e300};
  Rng rng(0x51D00D);
  for (const size_t n : {1, 2, 5, 33}) {
    const Matrix l = RandomCholeskyFactor(n, &rng);
    for (const size_t m : {1, 3, 4, 7, 16, 21, 35}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " m=" << m);
      std::vector<double> b = RandomVec(n * m, &rng);
      for (size_t i = 0; i < b.size(); i += 3) {
        b[i] = specials[(i / 3) % specials.size()];
      }
      ExpectLanesMatchOneByOne(l, b, m);
    }
  }
}

// The row-order Cholesky loop the lanes kernel must reproduce, as
// linalg::Cholesky ran it before the kernel existed. Returns the first
// pivot whose sum is <= 0, or n.
size_t RowOrderCholesky(const Matrix& a, Matrix* lower) {
  const size_t n = a.rows();
  *lower = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) sum -= lower->At(i, k) * lower->At(j, k);
      if (i == j) {
        if (sum <= 0.0) return i;
        lower->At(i, j) = std::sqrt(sum);
      } else {
        lower->At(i, j) = sum / lower->At(j, j);
      }
    }
  }
  return n;
}

// Both tiers and the dispatched linalg::Cholesky against the row-order
// loop, whose NaNs are canonicalized afterwards (rule 3: which entries are
// NaN never depends on operand order, so that is the lanes' factor).
// Returns the pivot they agree on. On success every entry must match; on a
// rejected pivot p, the entries both orders have written: rows 0..p,
// columns 0..min(row, p - 1).
size_t ExpectCholeskyLanesMatchRowOrder(const Matrix& a) {
  const size_t n = a.rows();
  Matrix want;
  const size_t pivot = RowOrderCholesky(a, &want);
  for (size_t i = 0; i < n * n; ++i) {
    want.Data()[i] = CanonicalNan(want.Data()[i]);
  }
  const double sentinel = -7.25;  // every entry must be overwritten
  std::vector<double> scalar(n * n, sentinel), avx2(n * n, sentinel);
  EXPECT_EQ(CholeskyLanesScalar(a.Data(), n, scalar.data()), pivot);
  EXPECT_EQ(CholeskyLanesAvx2(a.Data(), n, avx2.data()), pivot);
  Matrix dispatched;
  EXPECT_EQ(Cholesky(a, &dispatched), pivot == n);
  const size_t rows = pivot == n ? n : pivot + 1;
  for (size_t i = 0; i < rows; ++i) {
    const size_t cols = pivot == n ? n : std::min(i + 1, pivot);
    for (size_t j = 0; j < cols; ++j) {
      SCOPED_TRACE(::testing::Message() << "L(" << i << "," << j << ")");
      const uint64_t bits = Bits(want.At(i, j));
      EXPECT_EQ(Bits(scalar[i * n + j]), bits);
      EXPECT_EQ(Bits(avx2[i * n + j]), bits);
      if (pivot == n) {
        EXPECT_EQ(Bits(dispatched.At(i, j)), bits);
      }
    }
  }
  return pivot;
}

TEST(SimdCholeskyTest, LanesMatchRowOrderLoopBitForBit) {
  // Every n to 40 covers each count of 16-row panels, 4-row tails and
  // scalar rows below a pivot; the larger sizes cross a panel boundary
  // (63-65) or sit at the GP's window (119-121) and past it.
  Rng rng(0xC401E5);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (const size_t n : {63, 64, 65, 119, 120, 121, 130}) sizes.push_back(n);
  for (const size_t n : sizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    EXPECT_EQ(ExpectCholeskyLanesMatchRowOrder(RandomSpd(n, &rng)), n);
  }
}

TEST(SimdCholeskyTest, RejectsNonSpdAtTheSamePivot) {
  // A diagonal entry of 0 makes its pivot's sum negative (it subtracts
  // squares of the row's nonzero entries), or 0 at j = 0; the factor up to
  // that pivot is unchanged.
  Rng rng(0xC401E6);
  for (const size_t n : {18, 40, 130}) {
    for (const size_t bad : {size_t{0}, size_t{1}, size_t{17}, n - 1}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " pivot=" << bad);
      Matrix a = RandomSpd(n, &rng);
      a.At(bad, bad) = 0.0;
      EXPECT_EQ(ExpectCholeskyLanesMatchRowOrder(a), bad);
    }
  }
}

TEST(SimdCholeskyTest, SpecialValuesBitIdentical) {
  // Non-finite, signed-zero and denormal entries below the diagonal. A NaN
  // spreads through its row and every later row without failing a pivot
  // (NaN <= 0 is false); an infinity fails a later one. NaNs of both signs
  // meet in the products L(i,k) * L(j,k), so the canonical NaN is the only
  // one the factor may hold.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {nan, -nan, 0.0, -0.0, den, -den,
                                        1e-310, inf, -inf};
  Rng rng(0xC401E7);
  for (const size_t n : {5, 20, 37}) {
    for (size_t first = 0; first < specials.size(); ++first) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " first=" << first);
      Matrix a = RandomSpd(n, &rng);
      // Up to three specials at spread positions, cycling through the list.
      for (size_t s = 0; s < 3; ++s) {
        const size_t i = (n / 2 + 5 * s + first) % n;
        const size_t j = (s + first) % (i + 1);
        if (i == j) continue;
        a.At(i, j) = specials[(first + s) % specials.size()];
      }
      ExpectCholeskyLanesMatchRowOrder(a);
    }
  }
}

// Whatever the host dispatches, name and index agree; the force_scalar
// twin, run with HUNTER_FORCE_SCALAR=1, dispatches at the scalar tier.
TEST(SimdDispatchTest, TierNamesAndIndices) {
  EXPECT_EQ(ActiveTierIndex() == 1, std::string(ActiveTierName()) == "avx2+fma");
  EXPECT_EQ(ActiveTierIndex() == 0, std::string(ActiveTierName()) == "scalar");
  const char* forced = std::getenv("HUNTER_FORCE_SCALAR");
  if (forced != nullptr && std::string(forced) == "1") {
    EXPECT_EQ(ActiveTierIndex(), 0);
  }
}

}  // namespace
}  // namespace hunter::linalg::simd
