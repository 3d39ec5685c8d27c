// Minimal dense linear algebra used by PCA (covariance + eigendecomposition),
// Gaussian-process regression (Cholesky factorization and solves) and the
// batched MLP/DDPG training paths. Row-major doubles. The matrices in this
// project are small (tens to a few hundreds of rows), but the training
// loops call into them thousands of times per tuning step, so the hot
// kernels are written to be allocation-free (callers pass preallocated
// outputs that are reused across steps) and cache-friendly (all inner
// loops stream contiguous rows).
//
// Numeric contract: the products run on the simd:: GEMM kernels, whose
// contraction order linalg/simd/simd.h states, and the Cholesky factor is
// the row-order loop's to the bit. This keeps the AVX2 and scalar tiers
// bit-identical and the golden training and GP digests in tests/ml/ valid.

#ifndef HUNTER_LINALG_MATRIX_H_
#define HUNTER_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

namespace hunter::linalg {

// Non-allocating view of one matrix row: a (pointer, length) pair into the
// row-major storage. `Matrix::Row` copies into a fresh std::vector on every
// call, which is fine for cold paths but dominates the GP kernel double loop
// and Predict when called O(n^2) times per refit — hot loops take a RowSpan
// instead (enforced by hunterlint's no-matrix-row-copy-in-loop rule). The
// view is invalidated by anything that reallocates the matrix (Reshape to a
// larger size, assignment, destruction).
struct RowSpan {
  const double* data = nullptr;
  size_t size = 0;

  double operator[](size_t i) const { return data[i]; }
  const double* begin() const { return data; }
  const double* end() const { return data + size; }
};

class Matrix {
 public:
  Matrix() = default;
  // Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols);
  // Builds from nested vectors; all inner vectors must share one length.
  explicit Matrix(const std::vector<std::vector<double>>& rows);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  // Raw row-major storage, for the allocation-free kernels above.
  double* Data() { return data_.data(); }
  const double* Data() const { return data_.data(); }

  // Reshapes to rows x cols reusing the existing allocation where possible;
  // the contents are unspecified afterwards. Cheap to call every step with
  // the same shape (a no-op beyond bookkeeping), which is how the training
  // arenas stay allocation-free in steady state.
  void Reshape(size_t rows, size_t cols);
  void Fill(double value);

  std::vector<double> Row(size_t r) const;

  // Non-allocating row view; see RowSpan for the lifetime caveat.
  RowSpan RowView(size_t r) const { return {data_.data() + r * cols_, cols_}; }

  Matrix Transpose() const;
  Matrix Multiply(const Matrix& other) const;
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  // out = this * other, written into a preallocated (and reusable) output.
  void MultiplyInto(const Matrix& other, Matrix* out) const;
  // out (+)= this^T * other (this and other share their row count).
  void TransposedMultiplyInto(const Matrix& other, Matrix* out,
                              bool accumulate = false) const;

  // In-place scaling — no temporaries.
  void ScaleInPlace(double factor);

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// Column means of a data matrix (one observation per row).
std::vector<double> ColumnMeans(const Matrix& data);

// Column standard deviations (sample, N-1 denominator — consistent with
// common::Variance / common::RunningStat); zeros stay zero.
std::vector<double> ColumnStdDevs(const Matrix& data);

// Centers (and optionally scales to unit variance) each column.
// Columns with zero variance are centered only.
Matrix Standardize(const Matrix& data, bool unit_variance);

// One row of Standardize, given the columns' means and stds (Pca::Transform
// applies a fitted transform with it): out[i] = x[i] - means[i], divided by
// stds[i] when unit_variance and stds[i] > 1e-12.
void StandardizeRow(const double* x, const double* means, const double* stds,
                    bool unit_variance, double* out, size_t n);

// Sample covariance matrix (rows are observations), computed as a centered
// X^T X GEMM.
Matrix Covariance(const Matrix& data);

// Symmetric eigendecomposition. Returns eigenvalues in descending order
// with matching eigenvectors (each eigenvector is a column of
// `eigenvectors`; signs are unspecified, as for any eigensolver).
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};

// Householder tridiagonalization + implicit-shift QL — O(n^3) with a small
// constant. This is the production path (PCA refits sit on it); its test
// oracle is a cyclic Jacobi sweep in tests/linalg/matrix_test.cc.
// `max_sweeps` bounds the QL iterations spent per eigenvalue; convergence
// normally takes 2-3.
EigenResult SymmetricEigen(const Matrix& symmetric, int max_sweeps = 64);

// Cholesky factorization A = L * L^T of a symmetric positive-definite
// matrix, reading A's lower triangle. Returns false if the matrix is not
// (numerically) SPD, leaving `lower` unspecified. `lower` is reshaped, not
// reallocated, so a caller that keeps it factors allocation-free. The
// factorization runs with rows as SIMD lanes (simd::CholeskyLanes), bit
// for bit the row-order loop: every entry subtracts the same products in
// ascending k and divides by the same pivot.
bool Cholesky(const Matrix& a, Matrix* lower);

// Solves A x = b in place given the Cholesky factor L (forward + back
// substitution): `bx` goes in holding b and comes out holding x.
void CholeskySolve(const Matrix& lower, std::vector<double>* bx);

}  // namespace hunter::linalg

#endif  // HUNTER_LINALG_MATRIX_H_
