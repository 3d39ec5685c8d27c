// Parameterized property tests: invariants swept across workloads,
// catalogs, alpha preferences, and random configurations.

#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "cdb/fitness.h"
#include "cdb/knob_catalog.h"
#include "cdb/simulated_engine.h"
#include "common/rng.h"
#include "hunter/rules.h"
#include "workload/workloads.h"

namespace hunter {
namespace cdb {

// gtest finds this printer by argument-dependent lookup and prints it as
// the test parameter in each test's listed name. Without it, the name
// carries a raw byte dump of the profile that includes the name string's
// heap pointer, so the ctest names changed from one discovery to the next.
void PrintTo(const WorkloadProfile& profile, std::ostream* os) {
  *os << profile.name;
}

}  // namespace cdb

namespace {

// ---------------------------------------------------------------- catalogs

class CatalogProperty : public ::testing::TestWithParam<std::string> {
 protected:
  cdb::KnobCatalog Catalog() const {
    return GetParam() == "mysql" ? cdb::MySqlCatalog()
                                 : cdb::PostgresCatalog();
  }
};

TEST_P(CatalogProperty, RandomNormalizedRoundTripIsIdempotent) {
  const cdb::KnobCatalog catalog = Catalog();
  common::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> normalized(catalog.size());
    for (double& v : normalized) v = rng.Uniform();
    // Denormalize -> normalize -> denormalize must be a fixed point: the
    // first denormalization snaps to the knob's grid, after which the
    // round trip is exact.
    const cdb::Configuration raw1 =
        catalog.DenormalizeConfiguration(normalized);
    const cdb::Configuration raw2 = catalog.DenormalizeConfiguration(
        catalog.NormalizeConfiguration(raw1));
    for (size_t i = 0; i < catalog.size(); ++i) {
      EXPECT_NEAR(raw1[i], raw2[i],
                  1e-6 * std::max(1.0, std::abs(raw1[i])))
          << catalog.knob(i).name;
    }
  }
}

TEST_P(CatalogProperty, SnappedValuesRespectDomains) {
  const cdb::KnobCatalog catalog = Catalog();
  common::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    for (size_t i = 0; i < catalog.size(); ++i) {
      const cdb::KnobDef& def = catalog.knob(i);
      const double snapped = catalog.Snap(i, rng.Uniform(-1e7, 1e7));
      EXPECT_GE(snapped, def.min_value) << def.name;
      EXPECT_LE(snapped, def.max_value) << def.name;
      if (def.type != cdb::KnobType::kDouble) {
        EXPECT_DOUBLE_EQ(snapped, std::round(snapped)) << def.name;
      }
    }
  }
}

TEST_P(CatalogProperty, NormalizeIsMonotone) {
  const cdb::KnobCatalog catalog = Catalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const cdb::KnobDef& def = catalog.knob(i);
    double previous = -1.0;
    for (int step = 0; step <= 10; ++step) {
      const double raw = def.min_value +
                         (def.max_value - def.min_value) * step / 10.0;
      const double norm = catalog.Normalize(i, raw);
      EXPECT_GE(norm, previous - 1e-12) << def.name;
      previous = norm;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothCatalogs, CatalogProperty,
                         ::testing::Values("mysql", "postgresql"));

// ---------------------------------------------------------------- engine

class EngineProperty
    : public ::testing::TestWithParam<cdb::WorkloadProfile> {};

TEST_P(EngineProperty, AllConfigurationsProduceSanePerformance) {
  const cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  cdb::SimulatedEngine engine(&catalog, cdb::MySqlEvaluationInstance(),
                              cdb::MySqlEngineTuning());
  common::Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> normalized(catalog.size());
    for (double& v : normalized) v = rng.Uniform();
    const cdb::Configuration config =
        catalog.DenormalizeConfiguration(normalized);
    const cdb::PerfResult result =
        engine.Run(config, GetParam(), true, &rng);
    if (result.boot_failed) {
      EXPECT_DOUBLE_EQ(result.throughput_tps, -1000.0);
      continue;
    }
    EXPECT_GT(result.throughput_tps, 0.0);
    EXPECT_LT(result.throughput_tps, 1e6);
    EXPECT_GT(result.latency_p95_ms, 0.0);
    EXPECT_TRUE(std::isfinite(result.latency_p95_ms));
    EXPECT_GE(result.latency_p99_ms, result.latency_p95_ms);
    ASSERT_EQ(result.metrics.size(), cdb::kNumMetrics);
    for (double m : result.metrics) EXPECT_TRUE(std::isfinite(m));
    EXPECT_GE(result.latents[cdb::kLatHitRatio], 0.0);
    EXPECT_LE(result.latents[cdb::kLatHitRatio], 1.0);
    EXPECT_GE(result.latents[cdb::kLatCpuUtil], 0.0);
    EXPECT_LE(result.latents[cdb::kLatCpuUtil], 1.0);
  }
}

TEST_P(EngineProperty, ThroughputLatencyClosedLoopConsistency) {
  // In a closed system, average latency = population / throughput; the p95
  // must sit between 1x and ~5x that average.
  const cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  cdb::SimulatedEngine engine(&catalog, cdb::MySqlEvaluationInstance(),
                              cdb::MySqlEngineTuning());
  common::Rng rng(17);
  const cdb::PerfResult result =
      engine.Run(catalog.DefaultConfiguration(), GetParam(), true, &rng);
  ASSERT_FALSE(result.boot_failed);
  const double effective_clients = std::min<double>(
      GetParam().client_threads,
      GetParam().max_replay_parallelism > 0
          ? GetParam().max_replay_parallelism
          : GetParam().client_threads);
  const double avg_ms =
      std::min(effective_clients, 151.0) /  // default max_connections
      result.throughput_tps * 1000.0;
  EXPECT_GE(result.latency_p95_ms, 0.9 * avg_ms);
  EXPECT_LE(result.latency_p95_ms, 5.0 * avg_ms);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineProperty,
    ::testing::Values(workload::SysbenchReadOnly(),
                      workload::SysbenchReadWrite(),
                      workload::SysbenchWriteOnly(), workload::Tpcc(),
                      workload::Production(true),
                      workload::Production(false)),
    [](const ::testing::TestParamInfo<cdb::WorkloadProfile>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------- fitness

class FitnessProperty : public ::testing::TestWithParam<double> {};

TEST_P(FitnessProperty, MonotoneInThroughputAndLatency) {
  const double alpha = GetParam();
  const cdb::PerformanceSummary defaults{1000.0, 50.0};
  common::Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const cdb::PerformanceSummary a{rng.Uniform(100, 3000),
                                    rng.Uniform(5, 500)};
    // Strictly better on both axes must never lower the fitness.
    const cdb::PerformanceSummary better{a.throughput_tps * 1.1,
                                         a.latency_p95_ms * 0.9};
    EXPECT_GE(cdb::Fitness(alpha, better, defaults),
              cdb::Fitness(alpha, a, defaults));
  }
}

TEST_P(FitnessProperty, BoundedBelowByFailureFloor) {
  const double alpha = GetParam();
  const cdb::PerformanceSummary defaults{1000.0, 50.0};
  common::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const cdb::PerformanceSummary p{rng.Uniform(-2000, 5000),
                                    rng.Uniform(0.1, 1e6)};
    EXPECT_GE(cdb::Fitness(alpha, p, defaults), cdb::kBootFailureFitness);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, FitnessProperty,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

// ---------------------------------------------------------------- rules

class RulesProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(RulesProperty, ApplyIsIdempotent) {
  const cdb::KnobCatalog catalog = GetParam() == "mysql"
                                       ? cdb::MySqlCatalog()
                                       : cdb::PostgresCatalog();
  core::Rules rules;
  rules.FixKnob(catalog.knob(0).name, catalog.knob(0).max_value);
  rules.RestrictRange(catalog.knob(3).name, catalog.knob(3).min_value,
                      catalog.knob(3).default_value);
  common::Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> normalized(catalog.size());
    for (double& v : normalized) v = rng.Uniform();
    const auto once = rules.Apply(catalog, normalized);
    const auto twice = rules.Apply(catalog, once);
    EXPECT_EQ(once, twice);
  }
}

INSTANTIATE_TEST_SUITE_P(BothCatalogs, RulesProperty,
                         ::testing::Values("mysql", "postgresql"));

}  // namespace
}  // namespace hunter
