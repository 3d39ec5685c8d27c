// Uniform random search — the naive sampler the paper contrasts GA against
// in Figure 5 (Random Sampling is also CDBTune's cold-start sampler).

#ifndef HUNTER_TUNERS_RANDOM_TUNER_H_
#define HUNTER_TUNERS_RANDOM_TUNER_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "tuners/tuner.h"

namespace hunter::tuners {

class RandomTuner : public Tuner {
 public:
  RandomTuner(size_t dim, uint64_t seed) : dim_(dim), rng_(seed) {}

  std::string name() const override { return "Random"; }

  std::vector<std::vector<double>> Propose(size_t count) override {
    std::vector<std::vector<double>> proposals(count,
                                               std::vector<double>(dim_));
    for (auto& proposal : proposals) {
      for (double& v : proposal) v = rng_.Uniform();
    }
    return proposals;
  }

  void Observe(const std::vector<controller::Sample>&) override {}

 private:
  size_t dim_;
  common::Rng rng_;
};

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_RANDOM_TUNER_H_
