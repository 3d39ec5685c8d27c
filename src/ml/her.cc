#include "ml/her.h"

#include <cmath>

namespace hunter::ml {
namespace {

// Tolerance within which an achieved performance counts as "reaching" the
// hindsight goal (in reward units).
constexpr double kGoalTolerance = 0.05;

}  // namespace

std::vector<Transition> HerAugment(const std::vector<Transition>& transitions,
                                   const HerOptions& options,
                                   common::Rng* rng) {
  std::vector<Transition> augmented = transitions;
  if (transitions.empty()) return augmented;
  augmented.reserve(transitions.size() *
                    (1 + options.relabels_per_transition));
  for (const Transition& t : transitions) {
    for (size_t k = 0; k < options.relabels_per_transition; ++k) {
      const size_t goal_index = static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(transitions.size()) - 1));
      const double goal_reward = transitions[goal_index].reward;
      Transition relabeled = t;
      // Sparse hindsight reward: 1 if this transition achieved (or exceeded)
      // the hindsight goal within tolerance, else a shaped penalty
      // proportional to the shortfall.
      const double shortfall = goal_reward - t.reward;
      relabeled.reward = shortfall <= kGoalTolerance
                             ? 1.0
                             : -std::min(1.0, shortfall);
      augmented.push_back(std::move(relabeled));
    }
  }
  return augmented;
}

}  // namespace hunter::ml
