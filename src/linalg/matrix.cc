#include "linalg/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/simd/simd.h"

namespace hunter::linalg {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(const std::vector<std::vector<double>>& rows) {
  rows_ = rows.size();
  cols_ = rows.empty() ? 0 : rows[0].size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

void Matrix::Reshape(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::vector<double> Matrix::Row(size_t r) const {
  return std::vector<double>(data_.begin() + static_cast<long>(r * cols_),
                             data_.begin() + static_cast<long>((r + 1) * cols_));
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix result(rows_, other.cols_);
  simd::GemmInto(Data(), rows_, cols_, other.Data(), other.cols_,
                 /*accumulate=*/true, result.Data());
  return result;
}

void Matrix::MultiplyInto(const Matrix& other, Matrix* out) const {
  assert(cols_ == other.rows_);
  assert(out != this && out != &other);
  out->Reshape(rows_, other.cols_);
  simd::GemmInto(Data(), rows_, cols_, other.Data(), other.cols_,
                 /*accumulate=*/false, out->Data());
}

void Matrix::TransposedMultiplyInto(const Matrix& other, Matrix* out,
                                    bool accumulate) const {
  assert(rows_ == other.rows_);
  assert(out != this && out != &other);
  if (!accumulate) out->Reshape(cols_, other.cols_);
  assert(out->rows() == cols_ && out->cols() == other.cols_);
  simd::GemmTransposedAInto(Data(), rows_, cols_, other.Data(),
                            other.cols_, accumulate, out->Data());
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  assert(v.size() == cols_);
  std::vector<double> result(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) sum += At(r, c) * v[c];
    result[r] = sum;
  }
  return result;
}

void Matrix::ScaleInPlace(double factor) {
  for (double& v : data_) v *= factor;
}

std::vector<double> ColumnMeans(const Matrix& data) {
  std::vector<double> means(data.cols(), 0.0);
  if (data.rows() == 0) return means;
  // Row-by-row vector accumulate: column c's sum still adds the rows in
  // ascending order, exactly like the former nested scalar loop.
  for (size_t r = 0; r < data.rows(); ++r) {
    simd::AddInto(means.data(), data.Data() + r * data.cols(), means.data(),
                  data.cols());
  }
  for (double& m : means) m /= static_cast<double>(data.rows());
  return means;
}

std::vector<double> ColumnStdDevs(const Matrix& data) {
  std::vector<double> stds(data.cols(), 0.0);
  if (data.rows() < 2) return stds;
  const std::vector<double> means = ColumnMeans(data);
  for (size_t r = 0; r < data.rows(); ++r) {
    const double* row = data.Data() + r * data.cols();
    for (size_t c = 0; c < data.cols(); ++c) {
      const double d = row[c] - means[c];
      stds[c] += d * d;
    }
  }
  for (double& s : stds) s = std::sqrt(s / static_cast<double>(data.rows() - 1));
  return stds;
}

void StandardizeRow(const double* x, const double* means, const double* stds,
                    bool unit_variance, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double value = x[i] - means[i];
    if (unit_variance && stds[i] > 1e-12) value /= stds[i];
    out[i] = value;
  }
}

Matrix Standardize(const Matrix& data, bool unit_variance) {
  const std::vector<double> means = ColumnMeans(data);
  const std::vector<double> stds = ColumnStdDevs(data);
  Matrix result(data.rows(), data.cols());
  for (size_t r = 0; r < data.rows(); ++r) {
    StandardizeRow(data.Data() + r * data.cols(), means.data(), stds.data(),
                   unit_variance, result.Data() + r * data.cols(),
                   data.cols());
  }
  return result;
}

Matrix Covariance(const Matrix& data) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix cov(d, d);
  if (n < 2) return cov;
  const std::vector<double> means = ColumnMeans(data);
  Matrix centered(n, d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) centered.At(r, c) = data.At(r, c) - means[c];
  }
  centered.TransposedMultiplyInto(centered, &cov);
  cov.ScaleInPlace(1.0 / static_cast<double>(n - 1));
  return cov;
}

namespace {

// Sorts (diag, vectors-as-columns) into an EigenResult with eigenvalues
// descending.
EigenResult SortedEigenResult(const std::vector<double>& diag,
                              const Matrix& vectors) {
  const size_t n = diag.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t lhs, size_t rhs) { return diag[lhs] > diag[rhs]; });

  EigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (size_t out = 0; out < n; ++out) {
    const size_t src = order[out];
    result.eigenvalues[out] = diag[src];
    for (size_t k = 0; k < n; ++k) {
      result.eigenvectors.At(k, out) = vectors.At(k, src);
    }
  }
  return result;
}

}  // namespace

EigenResult SymmetricEigen(const Matrix& symmetric, int max_sweeps) {
  assert(symmetric.rows() == symmetric.cols());
  const size_t n = symmetric.rows();
  if (n == 0) return EigenResult{{}, Matrix()};

  // Stage 1 — Householder reduction to tridiagonal form (classic tred2):
  // n-2 reflections, each annihilating one row/column tail. `z` starts as a
  // working copy of the input and finishes holding the accumulated
  // orthogonal transform Q (A = Q T Q^T); `d` holds the diagonal of T and
  // `e` the subdiagonal. Unlike Jacobi — which chases every off-diagonal
  // element across O(sweeps) full passes — the reduction touches each
  // element a bounded number of times, which is where the speedup on PCA's
  // 63 x 63 covariance comes from.
  Matrix z = symmetric;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  const int ni = static_cast<int>(n);
  auto zat = [&z](int r, int c) -> double& {
    return z.At(static_cast<size_t>(r), static_cast<size_t>(c));
  };
  auto dat = [&d](int i) -> double& { return d[static_cast<size_t>(i)]; };
  auto eat = [&e](int i) -> double& { return e[static_cast<size_t>(i)]; };

  for (int i = ni - 1; i > 0; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k < i; ++k) scale += std::abs(zat(i, k));
      if (scale == 0.0) {
        eat(i) = zat(i, l);
      } else {
        for (int k = 0; k < i; ++k) {
          zat(i, k) /= scale;
          h += zat(i, k) * zat(i, k);
        }
        double f = zat(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        eat(i) = scale * g;
        h -= f * g;
        zat(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j < i; ++j) {
          zat(j, i) = zat(i, j) / h;
          g = 0.0;
          for (int k = 0; k < j + 1; ++k) g += zat(j, k) * zat(i, k);
          for (int k = j + 1; k < i; ++k) g += zat(k, j) * zat(i, k);
          eat(j) = g / h;
          f += eat(j) * zat(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j < i; ++j) {
          f = zat(i, j);
          g = eat(j) - hh * f;
          eat(j) = g;
          for (int k = 0; k < j + 1; ++k) {
            zat(j, k) -= f * eat(k) + g * zat(i, k);
          }
        }
      }
    } else {
      eat(i) = zat(i, l);
    }
    dat(i) = h;
  }
  dat(0) = 0.0;
  eat(0) = 0.0;
  // Accumulate the product of the Householder reflections into z.
  // (size_t induction: GCC's loop optimizer otherwise warns that the
  // signed counters could overflow in an unreachable max-trip version.)
  for (size_t ai = 0; ai < n; ++ai) {
    if (d[ai] != 0.0) {
      for (size_t j = 0; j < ai; ++j) {
        double g = 0.0;
        for (size_t k = 0; k < ai; ++k) g += z.At(ai, k) * z.At(k, j);
        for (size_t k = 0; k < ai; ++k) z.At(k, j) -= g * z.At(k, ai);
      }
    }
    d[ai] = z.At(ai, ai);
    z.At(ai, ai) = 1.0;
    for (size_t j = 0; j < ai; ++j) {
      z.At(j, ai) = 0.0;
      z.At(ai, j) = 0.0;
    }
  }

  // Stage 2 — implicit-shift QL on the tridiagonal (classic tqli), with the
  // Givens rotations applied to z so its columns finish as eigenvectors of
  // the original matrix. The Wilkinson shift makes each eigenvalue converge
  // in 2-3 iterations; `max_sweeps` is a safety cap per eigenvalue.
  for (int i = 1; i < ni; ++i) eat(i - 1) = eat(i);
  eat(ni - 1) = 0.0;
  for (int l = 0; l < ni; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < ni - 1; ++m) {
        const double dd = std::abs(dat(m)) + std::abs(dat(m + 1));
        if (std::abs(eat(m)) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == max_sweeps) break;
        double g = (dat(l + 1) - dat(l)) / (2.0 * eat(l));
        double r = std::hypot(g, 1.0);
        const double denom = g + (g >= 0.0 ? std::abs(r) : -std::abs(r));
        g = dat(m) - dat(l) + eat(l) / denom;
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * eat(i);
          const double b = c * eat(i);
          r = std::hypot(f, g);
          eat(i + 1) = r;
          if (r == 0.0) {
            dat(i + 1) -= p;
            eat(m) = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = dat(i + 1) - p;
          r = (dat(i) - g) * s + 2.0 * c * b;
          p = s * r;
          dat(i + 1) = g + p;
          g = c * r - b;
          for (int k = 0; k < ni; ++k) {
            f = zat(k, i + 1);
            zat(k, i + 1) = s * zat(k, i) + c * f;
            zat(k, i) = c * zat(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        dat(l) -= p;
        eat(l) = g;
        eat(m) = 0.0;
      }
    } while (m != l);
  }

  return SortedEigenResult(d, z);
}

bool Cholesky(const Matrix& a, Matrix* lower) {
  assert(a.rows() == a.cols());
  assert(lower != &a);
  const size_t n = a.rows();
  lower->Reshape(n, n);
  return simd::CholeskyLanes(a.Data(), n, lower->Data()) == n;
}

// hunterlint: hot
void CholeskySolve(const Matrix& lower, std::vector<double>* bx) {
  const size_t n = lower.rows();
  assert(bx->size() == n);
  std::vector<double>& x = *bx;
  // Forward substitution L y = b, y overwriting b: row i reads b(i) and
  // the y(k < i) already written.
  for (size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (size_t k = 0; k < i; ++k) sum -= lower.At(i, k) * x[k];
    x[i] = sum / lower.At(i, i);
  }
  // Back substitution L^T x = y, x overwriting y from the bottom up.
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = x[i];
    for (size_t k = i + 1; k < n; ++k) sum -= lower.At(k, i) * x[k];
    x[i] = sum / lower.At(i, i);
  }
}

}  // namespace hunter::linalg
