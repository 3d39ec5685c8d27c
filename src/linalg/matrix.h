// Minimal dense linear algebra used by PCA (covariance + eigendecomposition),
// Gaussian-process regression (Cholesky solves) and the batched MLP/DDPG
// training paths. Row-major doubles. The matrices in this project are small
// (tens to a few hundreds of rows), but the training loops call into them
// thousands of times per tuning step, so the hot kernels are written to be
// allocation-free (callers pass preallocated outputs that are reused across
// steps) and cache-friendly (all inner loops stream contiguous rows).
//
// Numeric contract: every GEMM kernel accumulates each output element with
// the k (inner/contraction) index ascending, exactly like a textbook
// dot-product loop. This keeps the AVX2 and scalar tiers bit-identical, a
// batched MLP forward row equal to Mlp::Predict, and the golden training
// digests in tests/ml/ (recorded from the former per-sample paths) valid.

#ifndef HUNTER_LINALG_MATRIX_H_
#define HUNTER_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

namespace hunter::linalg {

// Low-level row-major GEMM kernels shared by Matrix and the ML hot paths
// (which keep network parameters in flat arrays). `a` is (m x k), `b` is
// (k x n), `out` is (m x n). With `accumulate` the kernel adds into the
// existing contents of `out` (used to seed bias terms); otherwise `out` is
// zeroed first.
void GemmInto(const double* a, size_t m, size_t k, const double* b, size_t n,
              bool accumulate, double* out);

// out = broadcast(bias) + a * b: every output row starts from the length-n
// `bias` row and the contraction then accumulates on top, k ascending — the
// same order as seeding `out` with the bias and calling GemmInto in
// accumulate mode, but without the extra write+read pass over `out`. This
// is the layer-forward kernel: pre = bias + x * W^T.
void GemmBiasInto(const double* a, size_t m, size_t k, const double* b,
                  size_t n, const double* bias, double* out);

// out (+)= a^T * b where `a` is (k x m) and `b` is (k x n); the contraction
// runs over the leading (row) index of both, ascending, so batch rows add
// into a parameter gradient in order, as the golden training digests in
// tests/ml/ were recorded.
void GemmTransposedAInto(const double* a, size_t k, size_t m, const double* b,
                         size_t n, bool accumulate, double* out);

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
// constant, vs the cyclic Jacobi's O(n^3) *per sweep*. This is the
// production path (PCA refits sit on it). `max_sweeps` bounds the QL
// iterations spent per eigenvalue; convergence normally takes 2-3.
EigenResult SymmetricEigen(const Matrix& symmetric, int max_sweeps = 64);

// Cyclic Jacobi rotations — the original implementation, retained as the
// independent reference oracle for the QL path (tested against it on random
// symmetric matrices; see EigenTest in tests/linalg/matrix_test.cc).
EigenResult SymmetricEigenJacobi(const Matrix& symmetric, int max_sweeps = 64);

// Cholesky factorization A = L * L^T of a symmetric positive-definite
// matrix. Returns false if the matrix is not (numerically) SPD.
bool Cholesky(const Matrix& a, Matrix* lower);

// Solves A x = b given the Cholesky factor L (forward + back substitution).
std::vector<double> CholeskySolve(const Matrix& lower,
                                  const std::vector<double>& b);

}  // namespace hunter::linalg

#endif  // HUNTER_LINALG_MATRIX_H_
