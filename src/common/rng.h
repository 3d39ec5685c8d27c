// Seeded pseudo-random number generation utilities.
//
// All stochastic components in this repository (the simulated engine's noise,
// GA mutation, DDPG exploration, forest bootstrapping, ...) draw from an
// explicitly seeded Rng so that unit tests and experiment harnesses are
// reproducible. The generator is xoshiro256**, seeded through SplitMix64.

#ifndef HUNTER_COMMON_RNG_H_
#define HUNTER_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hunter::common {

// Cached per-(n, theta) constants of the Gray-style Zipf approximation,
// including every per-draw transcendental that does not depend on the
// uniform variate (`pow_half_theta` = pow(0.5, theta), formerly recomputed
// on every draw). `Compute` evaluates the exact same expressions the
// original per-draw code used, and `Rank` maps a uniform u in [0, 1) to a
// rank with the identical floating-point expression order — so for any
// fixed (n, theta) the u -> rank mapping is bit-identical to the original.
struct ZipfParams {
  uint64_t n = 0;
  double theta = -1.0;
  double zetan = 0.0;
  double alpha = 0.0;
  double eta = 0.0;
  double pow_half_theta = 0.0;

  // Requires n > 1 and theta > 0 (callers handle the degenerate cases).
  static ZipfParams Compute(uint64_t n, double theta);

  uint64_t Rank(double u) const {
    const double uz = u * zetan;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + pow_half_theta) return 1;
    const double rank =
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha);
    uint64_t result = static_cast<uint64_t>(rank);
    return result >= n ? n - 1 : result;
  }
};

// A small, fast, seedable PRNG (xoshiro256**) with the distribution helpers
// this project needs. Copyable so components can fork deterministic
// sub-streams via `Fork()`.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Advances the generator and returns 64 uniformly distributed bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (cached second value).
  double Gaussian();

  // Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p);

  // Zipfian-distributed integer in [0, n) with skew `theta` in [0, 1).
  // theta = 0 degenerates to uniform. Uses the Gray/Jim-Gray style
  // approximation used by YCSB-like workload generators.
  uint64_t Zipf(uint64_t n, double theta);

  // Samples an index from an (unnormalized, non-negative) weight vector.
  // If all weights are zero, samples uniformly.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  // Returns an independent generator deterministically derived from this
  // one's stream (useful for giving each clone / tree / thread its own RNG).
  Rng Fork();

  // Exact fingerprint of the draw-relevant generator state: the four
  // xoshiro256** words plus the Box-Muller cache (flag + cached value, the
  // latter bit-cast so NaN-free doubles compare exactly). Two generators
  // with equal fingerprints produce identical draw sequences. The Zipf
  // constants are deliberately excluded — they are a pure function of the
  // last (n, theta) arguments, not of the stream position, so they cannot
  // change what is drawn next. Tests and the hot-path bench's
  // `engine_cold_rng_stream` gate use it to compare stream positions.
  std::array<uint64_t, 6> StateFingerprint() const {
    return {state_[0], state_[1], state_[2], state_[3],
            has_cached_gaussian_ ? 1ull : 0ull,
            std::bit_cast<uint64_t>(cached_gaussian_)};
  }

 private:
  void SeedState(uint64_t seed);

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;

  // Cached Zipf constants (recomputed when (n, theta) changes).
  ZipfParams zipf_;
};

// A Zipf sampler with its constants bound up front, for batch draws where
// the caller knows (n, theta) ahead of time — e.g. the simulated engine's
// access-stream generation and lock-table replay. `Sample` consumes exactly
// one generator advance and produces the same value `Rng::Zipf(n, theta)`
// would have at the same stream position (the degenerate modulo path
// included), so switching a call site to a ZipfTable never changes a draw
// sequence. `Rebind` recomputes the constants only when (n, theta) actually
// changed, which lets two alternating distributions (page draws vs row
// draws) each keep a warm table instead of thrashing one shared cache; a
// small memo of previously computed parameter sets additionally makes
// re-binding between a handful of recurring distributions (e.g. a tuner
// alternating two workloads through one engine) free after the first
// evaluation of each. Memoization is unobservable: a hit returns the exact
// ZipfParams that `Compute` produced for that (n, theta) the first time.
class ZipfTable {
 public:
  ZipfTable() = default;
  ZipfTable(uint64_t n, double theta) { Rebind(n, theta); }

  void Rebind(uint64_t n, double theta) {
    if (bound_ && n == n_ && theta == theta_) return;
    bound_ = true;
    n_ = n;
    theta_ = theta;
    degenerate_ = n <= 1 || theta <= 0.0;
    if (degenerate_) return;
    for (const ZipfParams& m : memo_) {
      if (m.n == n && m.theta == theta) {
        params_ = m;
        return;
      }
    }
    params_ = ZipfParams::Compute(n, theta);
    if (memo_.size() < kMemoEntries) {
      memo_.push_back(params_);
    } else {
      // Round-robin replacement: the memo exists for a few recurring
      // bindings, so any victim policy beyond "not the newest" is moot.
      memo_[memo_next_] = params_;
      memo_next_ = (memo_next_ + 1) % kMemoEntries;
    }
  }

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  uint64_t Sample(Rng* rng) const {
    if (degenerate_) return n_ == 0 ? 0 : rng->NextU64() % n_;
    return params_.Rank(rng->Uniform());
  }

  // Draws `count` consecutive samples into `out` (resized by the caller).
  void Fill(Rng* rng, uint64_t* out, size_t count) const {
    for (size_t i = 0; i < count; ++i) out[i] = Sample(rng);
  }

 private:
  static constexpr size_t kMemoEntries = 8;

  uint64_t n_ = 0;
  double theta_ = -1.0;
  bool bound_ = false;
  bool degenerate_ = true;
  ZipfParams params_;
  std::vector<ZipfParams> memo_;
  size_t memo_next_ = 0;
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_RNG_H_
