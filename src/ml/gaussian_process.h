// Gaussian-process regression with a squared-exponential kernel plus the
// Expected-Improvement acquisition, implementing the surrogate model used by
// the OtterTune / iTuned line of work (§1 "Current Landscape") and by the
// ResTune-style meta-learning baseline.
//
// The GP sits inside the BO tuners' inner loop (one refit per Observe, one
// acquisition evaluation per candidate per Propose), so the hot paths follow
// the same playbook as the batched MLP/DDPG work (DESIGN.md §8, §11):
//
//  * The kernel matrix is built from the squared-distance expansion
//    ‖a − b‖² = ‖a‖² + ‖b‖² − 2 aᵀb with the Gram matrix computed by one
//    GemmTransposedAInto call, instead of an allocating per-row double loop.
//  * PredictBatch / ExpectedImprovementBatch are the only prediction path.
//    They score a whole candidate matrix over reused scratch arenas with the
//    candidates as lanes: the cross-kernel is built transposed (n x m, one
//    row per training point, one column per candidate) by one GEMM, and one
//    linalg::simd::ForwardSubstituteLanes call solves L W = K*ᵀ for every
//    candidate at once. The posterior variance comes from the forward
//    substitution alone (σ² = k(x,x) − ‖L⁻¹k*‖², the identity the two-pass
//    solve computes the long way). Each candidate's operations and their
//    order are those of a one-candidate substitution, so the outputs are
//    the same bits at both SIMD tiers; GpTest.BatchOutputsMatchGoldenDigest
//    pins them, and bench_micro_hotpaths checks them against an
//    independent formula (ref::SeedGp) to 1e-9.

#ifndef HUNTER_ML_GAUSSIAN_PROCESS_H_
#define HUNTER_ML_GAUSSIAN_PROCESS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace hunter::ml {

struct GpOptions {
  double length_scale = 0.9;   // shared SE length scale in normalized space
  double signal_variance = 1.0;
  double noise_variance = 5e-3;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpOptions options = {}) : options_(options) {}

  // Fits on inputs `x` (rows = observations in [0,1]^d) and targets `y`.
  // Returns false if the kernel matrix is numerically singular.
  bool Fit(const linalg::Matrix& x, const std::vector<double>& y);

  bool fitted() const { return fitted_; }
  size_t num_observations() const { return train_x_.rows(); }

  // Posterior mean and variance at a query point.
  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };

  // One row of `x` per query point, scored in a single GEMM-backed pass over
  // reused scratch (not thread-safe, like the rest of the class). `out` is
  // resized to x.rows(). Expected improvement is over `best_so_far`
  // (maximization convention).
  void PredictBatch(const linalg::Matrix& x,
                    std::vector<Prediction>* out) const;
  void ExpectedImprovementBatch(const linalg::Matrix& x, double best_so_far,
                                std::vector<double>* out) const;

  const GpOptions& options() const { return options_; }

 private:
  GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;         // n x d
  std::vector<double> row_norms_;  // ‖x_i‖², bit-matching the Gram diagonal
  double y_mean_ = 0.0;
  linalg::Matrix chol_;            // Cholesky factor of K + noise I
  std::vector<double> alpha_;      // (K + noise I)^-1 (y - mean)

  // Scratch arenas for the batch paths (allocation-free in steady state).
  mutable linalg::Matrix query_t_;  // d x m, the candidates transposed
  mutable linalg::Matrix cross_;    // n x m: K*ᵀ, then W = L⁻¹K*ᵀ in place
  mutable std::vector<double> query_norms_;
  mutable std::vector<double> reduction_;  // ‖w‖² per candidate
  mutable std::vector<Prediction> batch_predictions_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_GAUSSIAN_PROCESS_H_
