// BestConfig (Zhu et al., SoCC'17): divide-and-diverge sampling plus
// recursive bound-and-search. Each round Latin-Hypercube-samples the current
// bounded subspace; the next round re-centers and shrinks the bounds around
// the best sample found so far, restarting from the full space when a round
// brings no improvement.

#ifndef HUNTER_TUNERS_BESTCONFIG_H_
#define HUNTER_TUNERS_BESTCONFIG_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "tuners/tuner.h"

namespace hunter::tuners {

struct BestConfigOptions {
  size_t round_size = 150;    // samples per divide-and-diverge round
  double shrink_factor = 0.85; // bound shrink per recursive round
};

class BestConfigTuner : public Tuner {
 public:
  BestConfigTuner(size_t dim, const BestConfigOptions& options, uint64_t seed);

  std::string name() const override { return "BestConfig"; }
  std::vector<std::vector<double>> Propose(size_t count) override;
  void Observe(const std::vector<controller::Sample>& samples) override;

 private:
  void StartRound();

  size_t dim_;
  BestConfigOptions options_;
  common::Rng rng_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::vector<double>> pending_;
  std::vector<double> round_best_knobs_;
  double round_best_fitness_;
  double global_best_fitness_;
  bool have_best_ = false;
  size_t observed_in_round_ = 0;
};

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_BESTCONFIG_H_
