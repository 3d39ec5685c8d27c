// Gaussian-process regression with a squared-exponential kernel plus the
// Expected-Improvement acquisition, implementing the surrogate model used by
// the OtterTune / iTuned line of work (§1 "Current Landscape").
//
// The GP sits inside the BO tuners' inner loop (one refit per Observe, one
// acquisition evaluation per candidate per Propose), so the hot paths follow
// the same playbook as the batched MLP/DDPG work (DESIGN.md §8, §11):
//
//  * Fit does only new work. The BO tuners refit on a window that grows or
//    slides by a row or a few, so the new training set's leading rows are
//    usually, bit for bit, a run of the last set's rows. Fit keeps the last
//    kernel matrix and row norms; the shared block moves into place and
//    only the new rows' entries are computed: their Gram entries against
//    every row by one GEMM, then the squared-distance expansion
//    ‖a − b‖² = ‖a‖² + ‖b‖² − 2 aᵀb and libm exp. A first fit is the same
//    path with nothing kept. A kernel entry depends only on its two rows,
//    so the kept entries are the ones a full build would compute, bit for
//    bit. The factorization is linalg::Cholesky (rows as SIMD lanes). All
//    scratch is kept as members: a steady-state fit allocates nothing.
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
//    pins them, and GpTest.WindowGrowthMatchesSeedGp and
//    GpTest.ExpectedImprovementBatchMatchesSeedGp check them against an
//    independent formula (ref::SeedGp, tests/ml/seed_ml_ref.h) to 1e-9.
//    GpTest.RefitSequenceMatchesFreshFits holds every kind of refit to a
//    fresh GP's outputs, bit for bit.

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
  // Rows [0, kept) of `x` equal rows [shift, shift + kept) of the last
  // training set bit for bit, for the smallest such shift, with kept as
  // long as both sets allow; returns kept (0 when no run is shared or the
  // dimension changed).
  size_t SharedRows(const linalg::Matrix& x, size_t* shift) const;

  GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;         // n x d
  std::vector<double> row_norms_;  // ‖x_i‖², bit-matching the Gram diagonal
  linalg::Matrix kernel_;          // K + noise I, kept for the next Fit
  double y_mean_ = 0.0;
  linalg::Matrix chol_;            // Cholesky factor of K + noise I
  std::vector<double> alpha_;      // (K + noise I)^-1 (y - mean)

  // Fit scratch: the new rows transposed (d x fresh), their Gram block
  // against every row (n x fresh) and one row of squared distances.
  linalg::Matrix fresh_t_;
  linalg::Matrix gram_;
  std::vector<double> sq_;

  // Scratch arenas for the batch paths (allocation-free in steady state).
  mutable linalg::Matrix query_t_;  // d x m, the candidates transposed
  mutable linalg::Matrix cross_;    // n x m: K*ᵀ, then W = L⁻¹K*ᵀ in place
  mutable std::vector<double> query_norms_;
  mutable std::vector<double> reduction_;  // ‖w‖² per candidate
  mutable std::vector<Prediction> batch_predictions_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_GAUSSIAN_PROCESS_H_
