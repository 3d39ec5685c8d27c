#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "cdb/metric_catalog.h"
#include "hunter/ga.h"
#include "hunter/search_space_optimizer.h"

namespace hunter::core {
namespace {

controller::Sample MakeSample(const std::vector<double>& knobs,
                              double fitness, common::Rng* rng) {
  controller::Sample sample;
  sample.knobs = knobs;
  sample.fitness = fitness;
  sample.metrics.resize(cdb::kNumMetrics);
  // Metrics correlated with a few latent drivers plus noise.
  const double latent_a = knobs[0];
  const double latent_b = knobs[1];
  for (size_t i = 0; i < cdb::kNumMetrics; ++i) {
    const double mix = (i % 2 == 0) ? latent_a : latent_b;
    sample.metrics[i] =
        mix * (1.0 + 0.1 * static_cast<double>(i % 5)) + 0.01 * rng->Gaussian();
  }
  sample.throughput_tps = 1000 * (1 + fitness);
  sample.latency_p95_ms = 50;
  return sample;
}

// Separable objective with one dominant knob per index parity.
double Objective(const std::vector<double>& knobs) {
  double f = 0.0;
  f += 1.0 - std::abs(knobs[0] - 0.8);   // knob 0 matters a lot
  f += 0.8 * (1.0 - std::abs(knobs[1] - 0.3));
  for (size_t i = 2; i < knobs.size(); ++i) {
    f += 0.002 * knobs[i];  // long tail of near-irrelevant knobs
  }
  return f;
}

class GaTest : public ::testing::Test {
 protected:
  GaTest() : catalog_(cdb::MySqlCatalog()) {}
  cdb::KnobCatalog catalog_;
  Rules rules_;
};

TEST_F(GaTest, RespectsSampleBudget) {
  GaOptions options;
  options.target_samples = 50;
  GeneticSampleFactory factory(&catalog_, &rules_, options, 1);
  size_t total = 0;
  common::Rng rng(1);
  while (!factory.Done()) {
    auto proposals = factory.Propose(8);
    ASSERT_FALSE(proposals.empty());
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      samples.push_back(MakeSample(p, Objective(p), &rng));
    }
    factory.Observe(samples);
    total += samples.size();
  }
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(factory.evaluated(), 50u);
  EXPECT_TRUE(factory.Propose(4).empty());
}

TEST_F(GaTest, ImprovesOverGenerations) {
  GaOptions options;
  options.target_samples = 200;
  options.population = 20;
  GeneticSampleFactory factory(&catalog_, &rules_, options, 2);
  common::Rng rng(2);
  double first_gen_best = -1e9;
  double last_gen_best = -1e9;
  size_t seen = 0;
  while (!factory.Done()) {
    auto proposals = factory.Propose(20);
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      const double f = Objective(p);
      if (seen < 20) first_gen_best = std::max(first_gen_best, f);
      if (seen >= 180) last_gen_best = std::max(last_gen_best, f);
      ++seen;
      samples.push_back(MakeSample(p, f, &rng));
    }
    factory.Observe(samples);
  }
  EXPECT_GT(last_gen_best, first_gen_best);
  // The dominant knob should have been pushed toward its optimum 0.8.
  EXPECT_NEAR(factory.best_individual()[0], 0.8, 0.2);
}

TEST_F(GaTest, RespectsRules) {
  Rules rules;
  rules.FixKnob("innodb_adaptive_hash_index", 0);
  GaOptions options;
  options.target_samples = 60;
  GeneticSampleFactory factory(&catalog_, &rules, options, 3);
  const size_t ahi =
      static_cast<size_t>(catalog_.IndexOf("innodb_adaptive_hash_index"));
  common::Rng rng(3);
  while (!factory.Done()) {
    auto proposals = factory.Propose(10);
    for (const auto& p : proposals) {
      EXPECT_DOUBLE_EQ(catalog_.Denormalize(ahi, p[ahi]), 0.0);
    }
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      samples.push_back(MakeSample(p, Objective(p), &rng));
    }
    factory.Observe(samples);
  }
}

TEST_F(GaTest, DeterministicGivenSeed) {
  auto run = [&](uint64_t seed) {
    GaOptions options;
    options.target_samples = 40;
    GeneticSampleFactory factory(&catalog_, &rules_, options, seed);
    common::Rng rng(9);
    std::vector<double> last;
    while (!factory.Done()) {
      auto proposals = factory.Propose(10);
      std::vector<controller::Sample> samples;
      for (const auto& p : proposals) {
        samples.push_back(MakeSample(p, Objective(p), &rng));
        last = p;
      }
      factory.Observe(samples);
    }
    return last;
  };
  EXPECT_EQ(run(42), run(42));
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(cdb::MySqlCatalog()), rng_(5) {}

  std::vector<controller::Sample> MakePool(size_t n) {
    std::vector<controller::Sample> pool;
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> knobs(catalog_.size());
      for (double& v : knobs) v = rng_.Uniform();
      pool.push_back(MakeSample(knobs, Objective(knobs), &rng_));
    }
    return pool;
  }

  cdb::KnobCatalog catalog_;
  Rules rules_;
  common::Rng rng_;
};

TEST_F(OptimizerTest, PcaCompressesMetricSpace) {
  OptimizerOptions options;
  options.forest.num_trees = 30;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(140), catalog_, rules_, options, &rng_);
  EXPECT_TRUE(space.use_pca);
  // The synthetic metrics derive from 2 latents: huge compression expected.
  EXPECT_LT(space.state_dim, 10u);
  EXPECT_GE(space.state_dim, 1u);
}

TEST_F(OptimizerTest, RfSelectsTopKnobsIncludingDominantOnes) {
  OptimizerOptions options;
  options.forest.num_trees = 60;
  options.top_knobs = 20;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(280), catalog_, rules_, options, &rng_);
  EXPECT_EQ(space.selected_knobs.size(), 20u);
  // Knob 0 dominates the synthetic objective; it must be selected.
  EXPECT_NE(std::find(space.selected_knobs.begin(),
                      space.selected_knobs.end(), 0u),
            space.selected_knobs.end());
}

TEST_F(OptimizerTest, DisabledPcaKeepsRawMetrics) {
  OptimizerOptions options;
  options.use_pca = false;
  options.forest.num_trees = 20;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(60), catalog_, rules_, options, &rng_);
  EXPECT_FALSE(space.use_pca);
  EXPECT_EQ(space.state_dim, cdb::kNumMetrics);
  const std::vector<double> metrics(cdb::kNumMetrics, 2.0);
  EXPECT_EQ(space.EncodeState(metrics), metrics);
}

TEST_F(OptimizerTest, DisabledRfKeepsAllTunableKnobs) {
  OptimizerOptions options;
  options.use_rf = false;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(60), catalog_, rules_, options, &rng_);
  EXPECT_EQ(space.selected_knobs.size(), catalog_.size());
}

TEST_F(OptimizerTest, FixedKnobsNeverSelected) {
  Rules rules;
  rules.FixKnob("innodb_buffer_pool_size", 4096);
  OptimizerOptions options;
  options.forest.num_trees = 20;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(100), catalog_, rules, options, &rng_);
  const size_t bp =
      static_cast<size_t>(catalog_.IndexOf("innodb_buffer_pool_size"));
  EXPECT_EQ(std::find(space.selected_knobs.begin(),
                      space.selected_knobs.end(), bp),
            space.selected_knobs.end());
}

TEST_F(OptimizerTest, SignatureStableAcrossEquivalentSpaces) {
  OptimizedSpace a, b;
  a.state_dim = 13;
  a.selected_knobs = {5, 1, 9};
  b.state_dim = 13;
  b.selected_knobs = {9, 5, 1};  // different order, same set
  EXPECT_EQ(a.Signature(), b.Signature());
  b.state_dim = 12;
  EXPECT_NE(a.Signature(), b.Signature());
}

TEST_F(OptimizerTest, SmallPoolFallsBackGracefully) {
  OptimizerOptions options;
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      MakePool(4), catalog_, rules_, options, &rng_);
  // Not enough data for PCA or RF: raw metrics + all knobs.
  EXPECT_FALSE(space.use_pca);
  EXPECT_EQ(space.selected_knobs.size(), catalog_.size());
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Optimize's state size, knob selection and importance bits, on a fixed
// pool shaped like a real refresh: every knob quantized to 30 levels (real
// pools repeat each knob value across many samples, so the forest's tie
// order is exercised), every 13th sample boot-failed at a shared fitness
// floor, and the default options (200 trees). The digest was recorded from
// the former single-thread fit; the forest's thread count must not move it.
TEST_F(OptimizerTest, OptimizeOnTiedPoolMatchesGoldenDigest) {
  common::Rng data_rng(2024);
  std::vector<controller::Sample> pool;
  for (size_t i = 0; i < 400; ++i) {
    std::vector<double> knobs(catalog_.size());
    for (double& v : knobs) v = std::floor(data_rng.Uniform() * 30.0) / 29.0;
    controller::Sample sample = MakeSample(knobs, Objective(knobs), &data_rng);
    if (i % 13 == 0) {
      sample.boot_failed = true;
      sample.fitness = -2.0;
    }
    pool.push_back(sample);
  }
  common::Rng rng(7);
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      pool, catalog_, rules_, OptimizerOptions{}, &rng);

  uint64_t digest = 1469598103934665603ull;
  digest = Fnv1a(digest, space.state_dim);
  for (const size_t knob : space.selected_knobs) digest = Fnv1a(digest, knob);
  for (const double importance : space.knob_importance) {
    uint64_t bits = 0;
    std::memcpy(&bits, &importance, sizeof(bits));
    digest = Fnv1a(digest, bits);
  }
  EXPECT_EQ(space.selected_knobs.size(), 20u);
  EXPECT_EQ(digest, 0x663c75ee0b96b457ull) << std::hex << digest;
}

}  // namespace
}  // namespace hunter::core
