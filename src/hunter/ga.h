// The Sample Factory's Genetic Algorithm (§3.1, Algorithm 1).
//
// Individuals are normalized configurations K_i; fitness is Equation 1
// (computed by the Actor and carried on the Sample). Each generation keeps
// K_BEST (elitism, line 3 of Algorithm 1) and fills the rest by roulette
// selection, single-point crossover, and per-gene mutation. The factory
// stops after `target_samples` evaluations (140 in the paper, the Figure 6
// plateau).

#ifndef HUNTER_HUNTER_GA_H_
#define HUNTER_HUNTER_GA_H_

#include <cstddef>
#include <vector>

#include "cdb/knob.h"
#include "common/rng.h"
#include "controller/sample.h"
#include "hunter/rules.h"

namespace hunter::core {

struct GaOptions {
  size_t population = 20;       // individuals per generation
  size_t target_samples = 140;  // total stress tests the factory performs
};

class GeneticSampleFactory {
 public:
  GeneticSampleFactory(const cdb::KnobCatalog* catalog, const Rules* rules,
                       const GaOptions& options, uint64_t seed);

  // Next individuals to stress-test (never exceeds the remaining budget).
  std::vector<std::vector<double>> Propose(size_t count);

  // Feeds back evaluated samples (matched to proposals in order).
  void Observe(const std::vector<controller::Sample>& samples);

  // True once target_samples evaluations have been consumed.
  bool Done() const { return evaluated_ >= options_.target_samples; }

  size_t evaluated() const { return evaluated_; }
  // Generations bred so far (the initial random population is generation 0).
  size_t generations() const { return generations_; }
  const std::vector<double>& best_individual() const { return best_knobs_; }
  double best_fitness() const { return best_fitness_; }

 private:
  std::vector<double> RandomIndividual();
  void BreedGeneration();
  size_t Select();  // roulette index into population_

  const cdb::KnobCatalog* catalog_;
  const Rules* rules_;
  GaOptions options_;
  common::Rng rng_;

  struct Individual {
    std::vector<double> knobs;
    double fitness = 0.0;
  };
  std::vector<Individual> population_;      // evaluated individuals (POP)
  std::vector<std::vector<double>> queue_;  // awaiting evaluation
  std::vector<double> best_knobs_;
  double best_fitness_;
  size_t evaluated_ = 0;
  size_t generations_ = 0;
};

}  // namespace hunter::core

#endif  // HUNTER_HUNTER_GA_H_
