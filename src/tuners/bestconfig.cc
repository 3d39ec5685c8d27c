#include "tuners/bestconfig.h"

#include <algorithm>
#include <limits>

#include "ml/latin_hypercube.h"

namespace hunter::tuners {
namespace {

constexpr double kMinWidth = 0.02;  // narrowest bound before restarting

}  // namespace

BestConfigTuner::BestConfigTuner(size_t dim, const BestConfigOptions& options,
                                 uint64_t seed)
    : dim_(dim),
      options_(options),
      rng_(seed),
      lower_(dim, 0.0),
      upper_(dim, 1.0),
      round_best_fitness_(-std::numeric_limits<double>::infinity()),
      global_best_fitness_(-std::numeric_limits<double>::infinity()) {
  StartRound();
}

void BestConfigTuner::StartRound() {
  // Divide-and-diverge: Latin Hypercube over the current bounds.
  pending_ = ml::LatinHypercube(options_.round_size, dim_, &rng_);
  for (auto& sample : pending_) {
    for (size_t d = 0; d < dim_; ++d) {
      sample[d] = lower_[d] + sample[d] * (upper_[d] - lower_[d]);
    }
  }
  round_best_fitness_ = -std::numeric_limits<double>::infinity();
  observed_in_round_ = 0;
}

std::vector<std::vector<double>> BestConfigTuner::Propose(size_t count) {
  std::vector<std::vector<double>> proposals;
  while (proposals.size() < count) {
    if (pending_.empty()) StartRound();
    proposals.push_back(pending_.back());
    pending_.pop_back();
  }
  return proposals;
}

void BestConfigTuner::Observe(
    const std::vector<controller::Sample>& samples) {
  for (const controller::Sample& sample : samples) {
    ++observed_in_round_;
    if (sample.boot_failed) continue;
    if (sample.fitness > round_best_fitness_) {
      round_best_fitness_ = sample.fitness;
      round_best_knobs_ = sample.knobs;
    }
  }
  if (observed_in_round_ < options_.round_size || round_best_knobs_.empty()) {
    return;
  }

  // Round complete: recursive bound-and-search.
  if (round_best_fitness_ > global_best_fitness_) {
    global_best_fitness_ = round_best_fitness_;
    have_best_ = true;
    // Shrink bounds around the new best point.
    double width = 0.0;
    for (size_t d = 0; d < dim_; ++d) {
      const double half =
          0.5 * (upper_[d] - lower_[d]) * options_.shrink_factor;
      lower_[d] = std::clamp(round_best_knobs_[d] - half, 0.0, 1.0);
      upper_[d] = std::clamp(round_best_knobs_[d] + half, 0.0, 1.0);
      width = std::max(width, upper_[d] - lower_[d]);
    }
    if (width < kMinWidth) {
      lower_.assign(dim_, 0.0);
      upper_.assign(dim_, 1.0);
    }
  } else {
    // No improvement: diverge — restart from the full space but keep the
    // incumbent best (the harness tracks best-so-far).
    lower_.assign(dim_, 0.0);
    upper_.assign(dim_, 1.0);
  }
  StartRound();
}

}  // namespace hunter::tuners
