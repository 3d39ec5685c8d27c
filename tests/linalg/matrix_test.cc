#include "linalg/matrix.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hunter::linalg {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  m.At(1, 2) = 4.5;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 4.5);
}

TEST(MatrixTest, FromNestedVectors) {
  Matrix m({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 6.0);
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
}

TEST(MatrixTest, IdentityMultiplicationIsNeutral) {
  Matrix m({{1, 2}, {3, 4}});
  Matrix result = m.Multiply(Matrix::Identity(2));
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(result.At(r, c), m.At(r, c));
    }
  }
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix a({{1, 2, 3}, {4, 5, 6}});
  Matrix b({{7, 8}, {9, 10}, {11, 12}});
  Matrix p = a.Multiply(b);
  EXPECT_DOUBLE_EQ(p.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(p.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(p.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(p.At(1, 1), 154.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
  Matrix tt = t.Transpose();
  EXPECT_EQ(tt.Row(0), a.Row(0));
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a({{1, 2}, {3, 4}});
  const std::vector<double> v = a.MultiplyVector({1, 1});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, MultiplyIntoMatchesMultiply) {
  Matrix a({{1, 2, 3}, {4, 5, 6}});
  Matrix b({{7, 8}, {9, 10}, {11, 12}});
  Matrix out(1, 1);  // wrong shape on purpose — MultiplyInto reshapes
  a.MultiplyInto(b, &out);
  const Matrix expected = a.Multiply(b);
  ASSERT_EQ(out.rows(), expected.rows());
  ASSERT_EQ(out.cols(), expected.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_DOUBLE_EQ(out.At(r, c), expected.At(r, c));
    }
  }
}

TEST(MatrixTest, MultiplyPropagatesNanThroughZero) {
  // The old sparse-skip branch silently turned 0 * NaN into 0; the dense
  // kernel must propagate it.
  Matrix a({{0.0, 1.0}});
  Matrix b({{std::nan(""), 0.0}, {1.0, 1.0}});
  const Matrix p = a.Multiply(b);
  EXPECT_TRUE(std::isnan(p.At(0, 0)));
}

TEST(MatrixTest, TransposedMultiplyInto) {
  Matrix a({{1, 2}, {3, 4}, {5, 6}});  // 3x2
  Matrix b({{1, 0, 2}, {0, 1, 3}, {1, 1, 4}});  // 3x3
  Matrix out;
  a.TransposedMultiplyInto(b, &out);  // (2x3) = a^T * b
  const Matrix expected = a.Transpose().Multiply(b);
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 3u);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out.At(r, c), expected.At(r, c), 1e-12);
    }
  }
  // Accumulate mode adds on top of the existing contents.
  Matrix acc = out;
  a.TransposedMultiplyInto(b, &acc, /*accumulate=*/true);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(acc.At(r, c), 2.0 * expected.At(r, c), 1e-12);
    }
  }
}

TEST(MatrixTest, InPlaceOps) {
  Matrix a({{1, 2}, {3, 4}});
  a.ScaleInPlace(2.0);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 6.0);
}

TEST(MatrixTest, ReshapeAndFill) {
  Matrix m(2, 3);
  m.Fill(7.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 7.0);
  m.Reshape(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m.Fill(1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.0);
}

TEST(StatsHelpersTest, ColumnMeansAndStdDevs) {
  Matrix data({{1, 10}, {3, 10}, {5, 10}});
  const auto means = ColumnMeans(data);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
  const auto stds = ColumnStdDevs(data);
  // Sample (N-1) standard deviation, consistent with common::Variance:
  // {1,3,5} has sample variance 8/2 = 4.
  EXPECT_NEAR(stds[0], 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(stds[1], 0.0);
}

TEST(StatsHelpersTest, StdDevsWithFewerThanTwoRowsAreZero) {
  Matrix one_row({{7.0, -2.0}});
  const auto stds = ColumnStdDevs(one_row);
  EXPECT_DOUBLE_EQ(stds[0], 0.0);
  EXPECT_DOUBLE_EQ(stds[1], 0.0);
}

TEST(StatsHelpersTest, StandardizeCentersColumns) {
  Matrix data({{1, 5}, {3, 5}});
  Matrix z = Standardize(data, true);
  EXPECT_DOUBLE_EQ(z.At(0, 0) + z.At(1, 0), 0.0);
  // Zero-variance column stays centered at 0, not divided.
  EXPECT_DOUBLE_EQ(z.At(0, 1), 0.0);
}

TEST(StatsHelpersTest, CovarianceOfIndependentColumns) {
  Matrix data({{1, 4}, {2, 5}, {3, 6}});
  Matrix cov = Covariance(data);
  // Both columns have sample variance 1 and are perfectly correlated.
  EXPECT_NEAR(cov.At(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov.At(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(cov.At(0, 1), 1.0, 1e-12);
}

// Covariance is a centered XᵀX GEMM, which sums in another order than the
// textbook triple loop over the centered data (N−1 denominator), so the two
// agree to rounding (1e-9). Shapes: a small pool, and PCA's 140-sample
// window over the 63 engine metrics, standardized as Pca::Fit does.
TEST(StatsHelpersTest, CovarianceMatchesNaiveTripleLoop) {
  common::Rng rng(0xBEEF08);
  const size_t shapes[][2] = {{40, 12}, {140, 63}};
  for (const auto& [n, d] : shapes) {
    Matrix data(n, d);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < d; ++c) data.At(r, c) = rng.Uniform(-1.0, 1.0);
    }
    const Matrix x = Standardize(data, true);
    const Matrix cov = Covariance(x);
    ASSERT_EQ(cov.rows(), d);
    ASSERT_EQ(cov.cols(), d);
    const std::vector<double> means = ColumnMeans(x);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = 0; b < d; ++b) {
        double sum = 0.0;
        for (size_t r = 0; r < n; ++r) {
          sum += (x.At(r, a) - means[a]) * (x.At(r, b) - means[b]);
        }
        EXPECT_NEAR(cov.At(a, b), sum / static_cast<double>(n - 1), 1e-9)
            << "entry (" << a << ", " << b << ") at " << n << "x" << d;
      }
    }
  }
}

TEST(EigenTest, DiagonalMatrixEigenvalues) {
  Matrix d({{3, 0}, {0, 1}});
  EigenResult eig = SymmetricEigen(d);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
}

TEST(EigenTest, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix m({{2, 1}, {1, 2}});
  EigenResult eig = SymmetricEigen(m);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
  // Eigenvector for eigenvalue 3 is (1,1)/sqrt(2) up to sign.
  const double v0 = eig.eigenvectors.At(0, 0);
  const double v1 = eig.eigenvectors.At(1, 0);
  EXPECT_NEAR(std::abs(v0), std::numbers::sqrt2 / 2.0, 1e-8);
  EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(EigenTest, ReconstructsMatrix) {
  Matrix m({{4, 1, 0}, {1, 3, 1}, {0, 1, 2}});
  EigenResult eig = SymmetricEigen(m);
  // Reconstruct A = V diag(L) V^T.
  Matrix diag(3, 3);
  for (size_t i = 0; i < 3; ++i) diag.At(i, i) = eig.eigenvalues[i];
  Matrix rec = eig.eigenvectors.Multiply(diag).Multiply(
      eig.eigenvectors.Transpose());
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(rec.At(r, c), m.At(r, c), 1e-8);
    }
  }
}

TEST(EigenTest, EigenvectorsAreOrthonormal) {
  Matrix m({{5, 2, 1}, {2, 4, 2}, {1, 2, 3}});
  EigenResult eig = SymmetricEigen(m);
  Matrix vtv = eig.eigenvectors.Transpose().Multiply(eig.eigenvectors);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(vtv.At(r, c), r == c ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a({{4, 2}, {2, 3}});
  Matrix lower;
  ASSERT_TRUE(Cholesky(a, &lower));
  EXPECT_NEAR(lower.At(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(lower.At(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(lower.At(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(lower.At(0, 1), 0.0);
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a({{1, 2}, {2, 1}});  // eigenvalues 3 and -1
  Matrix lower;
  EXPECT_FALSE(Cholesky(a, &lower));
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Matrix a({{6, 2, 1}, {2, 5, 2}, {1, 2, 4}});
  const std::vector<double> x_true = {1.0, -2.0, 3.0};
  const std::vector<double> b = a.MultiplyVector(x_true);
  Matrix lower;
  ASSERT_TRUE(Cholesky(a, &lower));
  const std::vector<double> x = CholeskySolve(lower, b);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

// ---------------------------------------------------------------------------
// Householder + QL production eigensolver vs. the retained Jacobi oracle.

Matrix RandomSymmetric(size_t n, common::Rng* rng) {
  Matrix m(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c <= r; ++c) {
      const double v = rng->Uniform(-1.0, 1.0);
      m.At(r, c) = v;
      m.At(c, r) = v;
    }
  }
  return m;
}

// Eigenvalues must match the oracle; eigenvectors are sign-ambiguous, so
// check them through the reconstruction A = V diag(λ) Vᵀ instead.
void ExpectMatchesJacobiOracle(const Matrix& m) {
  const size_t n = m.rows();
  const EigenResult ql = SymmetricEigen(m);
  const EigenResult jacobi = SymmetricEigenJacobi(m);
  ASSERT_EQ(ql.eigenvalues.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.eigenvalues[i], jacobi.eigenvalues[i], 1e-8)
        << "eigenvalue " << i << " of " << n;
  }
  Matrix diag(n, n);
  for (size_t i = 0; i < n; ++i) diag.At(i, i) = ql.eigenvalues[i];
  const Matrix rec =
      ql.eigenvectors.Multiply(diag).Multiply(ql.eigenvectors.Transpose());
  const Matrix vtv = ql.eigenvectors.Transpose().Multiply(ql.eigenvectors);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(rec.At(r, c), m.At(r, c), 1e-8);
      EXPECT_NEAR(vtv.At(r, c), r == c ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(EigenTest, QlMatchesJacobiOnRandomSymmetricMatrices) {
  common::Rng rng(7);
  for (const size_t n : {3u, 5u, 8u, 13u, 21u}) {
    ExpectMatchesJacobiOracle(RandomSymmetric(n, &rng));
  }
}

TEST(EigenTest, QlHandlesTrivialSizes) {
  ExpectMatchesJacobiOracle(Matrix(std::vector<std::vector<double>>{{4.0}}));
  ExpectMatchesJacobiOracle(Matrix({{2, 1}, {1, 2}}));
  ExpectMatchesJacobiOracle(Matrix({{3, 0}, {0, 3}}));
}

TEST(EigenTest, QlHandlesRepeatedEigenvalues) {
  // diag(2, 2, 1) rotated into a dense basis: a genuinely degenerate pair.
  common::Rng rng(11);
  const Matrix q = SymmetricEigen(RandomSymmetric(3, &rng)).eigenvectors;
  Matrix d(3, 3);
  d.At(0, 0) = 2.0;
  d.At(1, 1) = 2.0;
  d.At(2, 2) = 1.0;
  const Matrix degenerate = q.Multiply(d).Multiply(q.Transpose());
  ExpectMatchesJacobiOracle(degenerate);
  // And the fully degenerate case.
  Matrix scaled_identity(4, 4);
  for (size_t i = 0; i < 4; ++i) scaled_identity.At(i, i) = 2.5;
  ExpectMatchesJacobiOracle(scaled_identity);
}

}  // namespace
}  // namespace hunter::linalg
