#include "hunter/ga.h"

#include <algorithm>
#include <limits>

namespace hunter::core {
namespace {

constexpr double kMutationProb = 0.10;  // beta: per-gene mutation probability

}  // namespace

GeneticSampleFactory::GeneticSampleFactory(const cdb::KnobCatalog* catalog,
                                           const Rules* rules,
                                           const GaOptions& options,
                                           uint64_t seed)
    : catalog_(catalog),
      rules_(rules),
      options_(options),
      rng_(seed),
      best_fitness_(-std::numeric_limits<double>::infinity()) {
  // Initialization (Algorithm 1 line 1): a random population.
  for (size_t i = 0; i < options_.population; ++i) {
    queue_.push_back(RandomIndividual());
  }
}

std::vector<double> GeneticSampleFactory::RandomIndividual() {
  std::vector<double> knobs(catalog_->size());
  for (double& v : knobs) v = rng_.Uniform();
  return rules_->Apply(*catalog_, std::move(knobs));
}

size_t GeneticSampleFactory::Select() {
  // Roulette selection (Equation 2) over fitness shifted to be positive.
  double min_fitness = std::numeric_limits<double>::infinity();
  for (const Individual& ind : population_) {
    min_fitness = std::min(min_fitness, ind.fitness);
  }
  std::vector<double> weights(population_.size());
  for (size_t i = 0; i < population_.size(); ++i) {
    const double shifted = population_[i].fitness - min_fitness + 1e-3;
    // Squared shifted fitness sharpens selection pressure; plain Eq.-2
    // roulette is nearly uniform when fitness spreads are small relative
    // to the shift.
    weights[i] = shifted * shifted;
  }
  return rng_.Categorical(weights);
}

void GeneticSampleFactory::BreedGeneration() {
  if (population_.empty()) {
    for (size_t i = 0; i < options_.population; ++i) {
      queue_.push_back(RandomIndividual());
    }
    return;
  }
  ++generations_;
  const size_t m = catalog_->size();
  // Elitism: K_BEST survives into the next generation (Algorithm 1 line 3).
  if (!best_knobs_.empty()) queue_.push_back(best_knobs_);
  while (queue_.size() < options_.population) {
    // Selection (line 5), crossover (line 7), mutation (line 8).
    const Individual& a = population_[Select()];
    const Individual& b = population_[Select()];
    const size_t cut =
        static_cast<size_t>(rng_.UniformInt(1, static_cast<int64_t>(m) - 1));
    std::vector<double> child(m);
    for (size_t g = 0; g < m; ++g) {
      child[g] = g < cut ? a.knobs[g] : b.knobs[g];
    }
    for (double& gene : child) {
      if (rng_.Bernoulli(kMutationProb)) gene = rng_.Uniform();
    }
    queue_.push_back(rules_->Apply(*catalog_, std::move(child)));
  }
  // POP = POP_i + POP_j (line 11): keep the strongest half of history so
  // selection pressure grows while memory stays bounded.
  std::sort(population_.begin(), population_.end(),
            [](const Individual& x, const Individual& y) {
              return x.fitness > y.fitness;
            });
  if (population_.size() > 2 * options_.population) {
    population_.resize(2 * options_.population);
  }
}

std::vector<std::vector<double>> GeneticSampleFactory::Propose(size_t count) {
  std::vector<std::vector<double>> proposals;
  const size_t budget = options_.target_samples - evaluated_;
  count = std::min(count, budget);
  while (proposals.size() < count) {
    if (queue_.empty()) BreedGeneration();
    proposals.push_back(queue_.back());
    queue_.pop_back();
  }
  return proposals;
}

void GeneticSampleFactory::Observe(
    const std::vector<controller::Sample>& samples) {
  for (const controller::Sample& sample : samples) {
    ++evaluated_;
    Individual individual;
    individual.knobs = sample.knobs;
    individual.fitness = sample.fitness;
    if (!sample.boot_failed && sample.fitness > best_fitness_) {
      best_fitness_ = sample.fitness;
      best_knobs_ = sample.knobs;
    }
    population_.push_back(std::move(individual));
  }
}

}  // namespace hunter::core
