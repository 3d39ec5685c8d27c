// Principal Component Analysis used by HUNTER's Search Space Optimizer
// (§3.2.1) to compress the 63-dimensional metric vector into the smallest
// number of components whose cumulative explained variance exceeds a target
// (the paper uses 90%; 13 components on TPC-C).

#ifndef HUNTER_ML_PCA_H_
#define HUNTER_ML_PCA_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace hunter::ml {

class Pca {
 public:
  // Fits on `data` (one observation per row). When `standardize` is true the
  // columns are scaled to unit variance before the eigendecomposition, which
  // is appropriate for metrics with wildly different units.
  void Fit(const linalg::Matrix& data, bool standardize = true);

  bool fitted() const { return fitted_; }

  // Explained-variance ratio per component, descending.
  const std::vector<double>& explained_variance_ratio() const {
    return explained_ratio_;
  }

  // Cumulative explained-variance ratio (CDF in the paper's Figure 7(a)).
  std::vector<double> CumulativeVarianceRatio() const;

  // Smallest number of components whose cumulative ratio >= `threshold`.
  size_t ComponentsForVariance(double threshold) const;

  // Projects one observation onto the first `k` components.
  std::vector<double> Transform(const std::vector<double>& row, size_t k) const;

  size_t input_dim() const { return means_.size(); }

  // Flat serialization of the fitted transform (for model persistence):
  // [dim, standardize, means..., stds..., ratios..., components(row-major)].
  std::vector<double> SaveState() const;
  // Restores a fitted transform; returns false, leaving the transform as it
  // was, on a malformed buffer: a dimension that is not a whole number >= 1
  // or a length other than 2 + 3·dim + dim².
  bool LoadState(const std::vector<double>& state);

 private:
  bool fitted_ = false;
  bool standardize_ = true;
  std::vector<double> means_;
  std::vector<double> stds_;
  std::vector<double> explained_ratio_;
  linalg::Matrix components_;  // input_dim x input_dim, columns = components
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_PCA_H_
