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
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "common/cpu.h"
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

TEST(SimdElementwiseTest, AddSubScaleBitIdentical) {
  Rng rng(0x51D001);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    const std::vector<double> y = RandomVec(n, &rng);
    std::vector<double> a(n), b(n);

    AddIntoScalar(x.data(), y.data(), a.data(), n);
    AddIntoAvx2(x.data(), y.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    SubIntoScalar(x.data(), y.data(), a.data(), n);
    SubIntoAvx2(x.data(), y.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    ScaleIntoScalar(x.data(), 0.37, a.data(), n);
    ScaleIntoAvx2(x.data(), 0.37, b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdElementwiseTest, ExactAliasingInPlace) {
  // The Matrix in-place ops pass out == x; the kernels must tolerate it.
  Rng rng(0x51D002);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> a = x, b = x;
    AddIntoScalar(a.data(), a.data(), a.data(), n);
    AddIntoAvx2(b.data(), b.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    a = x;
    b = x;
    ScaleIntoScalar(a.data(), 3.25, a.data(), n);
    ScaleIntoAvx2(b.data(), 3.25, b.data(), n);
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

    TanhGradMulIntoScalar(g.data(), x.data(), a.data(), n);
    TanhGradMulIntoAvx2(g.data(), x.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    ClampUnitFromTanhIntoScalar(x.data(), a.data(), n);
    ClampUnitFromTanhIntoAvx2(x.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    ScaleClampIntoScalar(x.data(), 0.5, 0.75, a.data(), n);
    ScaleClampIntoAvx2(x.data(), 0.5, 0.75, b.data(), n);
    ExpectBitsEqual(a, b);
  }
}

TEST(SimdActivationTest, SpecialValuesBitIdentical) {
  // The predicated kernels document exact NaN / signed-zero / infinity
  // behavior (vmaxpd operand order, clamp's compare+blend test order) —
  // hold them to it bit for bit.
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

  ClampUnitFromTanhIntoScalar(x.data(), a.data(), n);
  ClampUnitFromTanhIntoAvx2(x.data(), b.data(), n);
  ExpectBitsEqual(a, b);

  ScaleClampIntoScalar(x.data(), 0.5, 1.0, a.data(), n);
  ScaleClampIntoAvx2(x.data(), 0.5, 1.0, b.data(), n);
  ExpectBitsEqual(a, b);

  SquaredDistIntoScalar(1.5, x.data(), g.data(), a.data(), n);
  SquaredDistIntoAvx2(1.5, x.data(), g.data(), b.data(), n);
  ExpectBitsEqual(a, b);
}

TEST(SimdStatsTest, AccumStandardizeSquaredDistBitIdentical) {
  Rng rng(0x51D005);
  for (size_t n : kSizes) {
    const std::vector<double> x = RandomVec(n, &rng);
    const std::vector<double> means = RandomVec(n, &rng);
    std::vector<double> stds = RandomVec(n, &rng);
    for (double& s : stds) s = std::abs(s);
    if (n > 1) stds[n / 2] = 0.0;  // exercise the guarded divide
    std::vector<double> a(n), b(n);

    a = means;
    b = means;
    AccumSquaredCenteredScalar(x.data(), means.data(), a.data(), n);
    AccumSquaredCenteredAvx2(x.data(), means.data(), b.data(), n);
    ExpectBitsEqual(a, b);

    for (const bool unit : {false, true}) {
      StandardizeIntoScalar(x.data(), means.data(), stds.data(), unit,
                            a.data(), n);
      StandardizeIntoAvx2(x.data(), means.data(), stds.data(), unit, b.data(),
                          n);
      ExpectBitsEqual(a, b);
    }

    SquaredDistIntoScalar(2.25, x.data(), means.data(), a.data(), n);
    SquaredDistIntoAvx2(2.25, x.data(), means.data(), b.data(), n);
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

// The dispatched entry points (linalg::GemmInto in both accumulate modes,
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
      linalg::GemmInto(a.data(), s.m, s.k, b.data(), s.n, accumulate,
                       out.data());
      ExpectBitsEqual(TextbookGemm(a, false, s.m, s.k, b, s.n, start), out);
      out = seed;
      linalg::GemmTransposedAInto(a.data(), s.k, s.m, b.data(), s.n,
                                  accumulate, out.data());
      ExpectBitsEqual(TextbookGemm(a, true, s.m, s.k, b, s.n, start), out);
    }
    std::vector<double> bias_rows(s.m * s.n);
    for (size_t i = 0; i < s.m; ++i) {
      std::copy(bias.begin(), bias.end(), bias_rows.begin() + i * s.n);
    }
    std::vector<double> out(s.m * s.n);
    linalg::GemmBiasInto(a.data(), s.m, s.k, b.data(), s.n, bias.data(),
                         out.data());
    ExpectBitsEqual(TextbookGemm(a, false, s.m, s.k, b, s.n, bias_rows), out);
  }
}

// A well-conditioned n x n lower-triangular factor, as the GP passes: the
// Cholesky factor of MᵀM + n·I for a random M.
Matrix RandomCholeskyFactor(size_t n, Rng* rng) {
  Matrix mat(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) mat.At(r, c) = rng->Uniform(-1.0, 1.0);
  }
  Matrix spd = mat.Transpose().Multiply(mat);
  for (size_t i = 0; i < n; ++i) spd.At(i, i) += static_cast<double>(n);
  Matrix lower;
  EXPECT_TRUE(Cholesky(spd, &lower));
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
    (*red)[c] = reduction;
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
  // their own column only; NaN signs and payloads must match per lane.
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

// The dispatched entry points honor the testing override: a forced-scalar
// pass and a hardware-tier pass through Matrix::MultiplyInto must agree to
// the bit (and the override must clamp/restore cleanly).
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { common::ClearSimdTierForTesting(); }
};

TEST_F(SimdDispatchTest, MatrixMultiplyTierToggleBitIdentical) {
  Rng rng(0x51D00B);
  Matrix a(13, 29), b(29, 21);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) a.At(r, c) = rng.Uniform(-1.0, 1.0);
  }
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) b.At(r, c) = rng.Uniform(-1.0, 1.0);
  }
  Matrix scalar_out;
  common::SetSimdTierForTesting(common::SimdTier::kScalar);
  EXPECT_STREQ(ActiveTierName(), "scalar");
  a.MultiplyInto(b, &scalar_out);
  common::ClearSimdTierForTesting();
  Matrix simd_out;
  a.MultiplyInto(b, &simd_out);
  for (size_t r = 0; r < scalar_out.rows(); ++r) {
    for (size_t c = 0; c < scalar_out.cols(); ++c) {
      EXPECT_EQ(Bits(scalar_out.At(r, c)), Bits(simd_out.At(r, c)));
    }
  }
}

TEST_F(SimdDispatchTest, TierNamesAndIndices) {
  EXPECT_STREQ(common::SimdTierName(common::SimdTier::kScalar), "scalar");
  EXPECT_STREQ(common::SimdTierName(common::SimdTier::kAvx2Fma), "avx2+fma");
  common::SetSimdTierForTesting(common::SimdTier::kScalar);
  EXPECT_EQ(ActiveTierIndex(), 0);
  common::ClearSimdTierForTesting();
  // Whatever the host dispatches, name and index must agree.
  EXPECT_EQ(ActiveTierIndex() == 1, std::string(ActiveTierName()) == "avx2+fma");
}

}  // namespace
}  // namespace hunter::linalg::simd
