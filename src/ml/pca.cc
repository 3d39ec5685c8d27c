#include "ml/pca.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hunter::ml {

void Pca::Fit(const linalg::Matrix& data, bool standardize) {
  assert(data.rows() >= 2);
  standardize_ = standardize;
  means_ = linalg::ColumnMeans(data);
  stds_ = linalg::ColumnStdDevs(data);

  const linalg::Matrix centered = linalg::Standardize(data, standardize);
  const linalg::Matrix cov = linalg::Covariance(centered);
  linalg::EigenResult eigen = linalg::SymmetricEigen(cov);

  double total = 0.0;
  for (double ev : eigen.eigenvalues) total += std::max(ev, 0.0);
  explained_ratio_.assign(eigen.eigenvalues.size(), 0.0);
  if (total > 0.0) {
    for (size_t i = 0; i < eigen.eigenvalues.size(); ++i) {
      explained_ratio_[i] = std::max(eigen.eigenvalues[i], 0.0) / total;
    }
  }
  components_ = std::move(eigen.eigenvectors);
  fitted_ = true;
}

std::vector<double> Pca::CumulativeVarianceRatio() const {
  std::vector<double> cdf(explained_ratio_.size());
  double running = 0.0;
  for (size_t i = 0; i < explained_ratio_.size(); ++i) {
    running += explained_ratio_[i];
    cdf[i] = running;
  }
  return cdf;
}

size_t Pca::ComponentsForVariance(double threshold) const {
  double running = 0.0;
  for (size_t i = 0; i < explained_ratio_.size(); ++i) {
    running += explained_ratio_[i];
    if (running >= threshold) return i + 1;
  }
  return explained_ratio_.size();
}

// hunterlint: hot
std::vector<double> Pca::Transform(const std::vector<double>& row,
                                   size_t k) const {
  assert(fitted_);
  assert(row.size() == means_.size());
  k = std::min(k, components_.cols());
  std::vector<double> centered(row.size());
  linalg::StandardizeRow(row.data(), means_.data(), stds_.data(),
                         standardize_, centered.data(), row.size());
  std::vector<double> projected(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    double sum = 0.0;
    for (size_t i = 0; i < centered.size(); ++i) {
      sum += components_.At(i, c) * centered[i];
    }
    projected[c] = sum;
  }
  return projected;
}

std::vector<double> Pca::SaveState() const {
  std::vector<double> state;
  const size_t dim = means_.size();
  state.push_back(static_cast<double>(dim));
  state.push_back(standardize_ ? 1.0 : 0.0);
  state.insert(state.end(), means_.begin(), means_.end());
  state.insert(state.end(), stds_.begin(), stds_.end());
  state.insert(state.end(), explained_ratio_.begin(), explained_ratio_.end());
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < dim; ++c) state.push_back(components_.At(r, c));
  }
  return state;
}

bool Pca::LoadState(const std::vector<double>& state) {
  if (state.size() < 2) return false;
  // The dimension must be a whole number >= 1 before it is cast. dim² can
  // not exceed the buffer, which also keeps 2 + 3·dim + dim² far from
  // overflowing size_t.
  const double raw_dim = state[0];
  if (!std::isfinite(raw_dim) || raw_dim < 1.0 ||
      raw_dim != std::floor(raw_dim) ||
      raw_dim > std::sqrt(static_cast<double>(state.size()))) {
    return false;
  }
  const size_t dim = static_cast<size_t>(raw_dim);
  if (state.size() != 2 + 3 * dim + dim * dim) return false;
  standardize_ = state[1] != 0.0;
  size_t offset = 2;
  means_.assign(state.begin() + static_cast<long>(offset),
                state.begin() + static_cast<long>(offset + dim));
  offset += dim;
  stds_.assign(state.begin() + static_cast<long>(offset),
               state.begin() + static_cast<long>(offset + dim));
  offset += dim;
  explained_ratio_.assign(state.begin() + static_cast<long>(offset),
                          state.begin() + static_cast<long>(offset + dim));
  offset += dim;
  components_ = linalg::Matrix(dim, dim);
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < dim; ++c) components_.At(r, c) = state[offset++];
  }
  fitted_ = true;
  return true;
}

}  // namespace hunter::ml
