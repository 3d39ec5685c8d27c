// Hindsight-Experience-Replay-style sample augmentation (Andrychowicz et al.
// 2017). The paper evaluates HER as an *alternative* DRL warm-up to GA+
// (Table 6) and finds it inferior; this module implements the relabeling
// scheme so that ablation can be reproduced.
//
// In the knob-tuning setting there is no explicit goal vector, so we follow
// the common adaptation: each transition is duplicated with its reward
// recomputed relative to an "achieved goal" — the performance of another
// (randomly chosen) transition from the same pool — which densifies the
// reward signal around configurations the agent has actually reached.

#ifndef HUNTER_ML_HER_H_
#define HUNTER_ML_HER_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "ml/replay_buffer.h"

namespace hunter::ml {

struct HerOptions {
  // Number of relabeled copies per original transition.
  size_t relabels_per_transition = 2;
};

// Returns the augmented set: originals followed by relabeled copies.
std::vector<Transition> HerAugment(const std::vector<Transition>& transitions,
                                   const HerOptions& options,
                                   common::Rng* rng);

}  // namespace hunter::ml

#endif  // HUNTER_ML_HER_H_
