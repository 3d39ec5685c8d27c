#include "cdb/simulated_engine.h"

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "common/rng.h"
#include "workload/workloads.h"

namespace hunter::cdb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : catalog_(MySqlCatalog()),
        engine_(&catalog_, MySqlEvaluationInstance(), MySqlEngineTuning()) {}

  PerfResult Run(const Configuration& config, const WorkloadProfile& workload,
                 uint64_t seed = 99) {
    common::Rng rng(seed);
    return engine_.Run(config, workload, /*warm_start=*/true, &rng);
  }

  // Averages throughput over a few seeds to smooth run-to-run noise.
  double MeanThroughput(const Configuration& config,
                        const WorkloadProfile& workload, int repeats = 4) {
    double total = 0.0;
    for (int i = 0; i < repeats; ++i) {
      total += Run(config, workload, 100 + static_cast<uint64_t>(i))
                   .throughput_tps;
    }
    return total / repeats;
  }

  void Set(Configuration* config, const char* name, double value) {
    const int index = catalog_.IndexOf(name);
    ASSERT_GE(index, 0) << name;
    (*config)[static_cast<size_t>(index)] = value;
  }

  KnobCatalog catalog_;
  SimulatedEngine engine_;
};

TEST_F(EngineTest, DefaultConfigurationBoots) {
  std::string reason;
  EXPECT_TRUE(engine_.ValidateBoot(catalog_.DefaultConfiguration(), &reason))
      << reason;
}

TEST_F(EngineTest, OversizedBufferPoolFailsBoot) {
  Configuration config = catalog_.DefaultConfiguration();
  Set(&config, "innodb_buffer_pool_size", 48000);  // ~47 GB on a 32 GB box
  std::string reason;
  EXPECT_FALSE(engine_.ValidateBoot(config, &reason));
  EXPECT_FALSE(reason.empty());
}

TEST_F(EngineTest, ConnectionMemoryCountsAgainstRam) {
  Configuration config = catalog_.DefaultConfiguration();
  Set(&config, "innodb_buffer_pool_size", 24000);
  Set(&config, "max_connections", 10000);  // 15 GB of connection arenas
  EXPECT_FALSE(engine_.ValidateBoot(config, nullptr));
}

TEST_F(EngineTest, NonFiniteKnobFailsBoot) {
  // Whatever the knob, a NaN or infinite value never boots, and the reason
  // names the knob. (NaN compares false against the RAM budget, so only the
  // explicit check catches it before Run casts it to a page count.)
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < catalog_.size(); ++i) {
    for (const double bad : bad_values) {
      Configuration config = catalog_.DefaultConfiguration();
      config[i] = bad;
      std::string reason;
      EXPECT_FALSE(engine_.ValidateBoot(config, &reason))
          << catalog_.knob(i).name << " = " << bad;
      EXPECT_NE(reason.find(catalog_.knob(i).name), std::string::npos)
          << reason;
    }
  }
}

TEST_F(EngineTest, BootFailureResultMatchesPaperSentinel) {
  Configuration config = catalog_.DefaultConfiguration();
  Set(&config, "innodb_buffer_pool_size", 49152);
  const PerfResult result = Run(config, workload::Tpcc());
  EXPECT_TRUE(result.boot_failed);
  EXPECT_DOUBLE_EQ(result.throughput_tps, -1000.0);
  EXPECT_TRUE(std::isinf(result.latency_p95_ms));
}

TEST_F(EngineTest, ProducesAllMetrics) {
  const PerfResult result =
      Run(catalog_.DefaultConfiguration(), workload::Tpcc());
  EXPECT_EQ(result.metrics.size(), kNumMetrics);
  EXPECT_FALSE(result.boot_failed);
  EXPECT_GT(result.throughput_tps, 0.0);
  EXPECT_GT(result.latency_p95_ms, 0.0);
}

TEST_F(EngineTest, BiggerBufferPoolHelpsIoBoundWorkload) {
  // Relax the commit path first so the log device is not the bottleneck;
  // then buffer pool size governs the IO-bound throughput.
  Configuration small = catalog_.DefaultConfiguration();
  Set(&small, "innodb_flush_log_at_trx_commit", 2);
  Set(&small, "sync_binlog", 0);
  Configuration large = small;
  Set(&large, "innodb_buffer_pool_size", 16384);
  const auto workload = workload::Tpcc();
  EXPECT_GT(MeanThroughput(large, workload),
            1.08 * MeanThroughput(small, workload));
}

TEST_F(EngineTest, RelaxedFlushPolicyHelpsWrites) {
  Configuration strict = catalog_.DefaultConfiguration();
  Configuration relaxed = catalog_.DefaultConfiguration();
  Set(&relaxed, "innodb_flush_log_at_trx_commit", 2);
  Set(&relaxed, "sync_binlog", 1000);
  const auto workload = workload::SysbenchWriteOnly();
  EXPECT_GT(MeanThroughput(relaxed, workload),
            1.3 * MeanThroughput(strict, workload));
}

TEST_F(EngineTest, FlushPolicyIrrelevantForReadOnly) {
  Configuration strict = catalog_.DefaultConfiguration();
  Configuration relaxed = catalog_.DefaultConfiguration();
  Set(&relaxed, "innodb_flush_log_at_trx_commit", 0);
  const auto workload = workload::SysbenchReadOnly();
  const double t_strict = MeanThroughput(strict, workload);
  const double t_relaxed = MeanThroughput(relaxed, workload);
  EXPECT_NEAR(t_relaxed / t_strict, 1.0, 0.05);
}

TEST_F(EngineTest, ThreadConcurrencyHasInteriorOptimum) {
  // For the 512-thread Sysbench workload, an uncapped engine suffers latch
  // contention; a moderate cap beats both extremes.
  auto workload = workload::SysbenchReadOnly();
  Configuration uncapped = catalog_.DefaultConfiguration();
  Set(&uncapped, "innodb_buffer_pool_size", 12288);
  Configuration capped = uncapped;
  Set(&capped, "innodb_thread_concurrency", 40);
  Configuration tiny = uncapped;
  Set(&tiny, "innodb_thread_concurrency", 2);
  const double t_uncapped = MeanThroughput(uncapped, workload);
  const double t_capped = MeanThroughput(capped, workload);
  const double t_tiny = MeanThroughput(tiny, workload);
  EXPECT_GT(t_capped, t_uncapped);
  EXPECT_GT(t_capped, t_tiny);
}

TEST_F(EngineTest, IoCapacityHasARidge) {
  // Too little background flushing stalls writers; vastly too much steals
  // read bandwidth.
  auto workload = workload::SysbenchWriteOnly();
  Configuration base = catalog_.DefaultConfiguration();
  Set(&base, "innodb_buffer_pool_size", 12288);
  Set(&base, "innodb_flush_log_at_trx_commit", 2);
  Set(&base, "sync_binlog", 0);
  Configuration low = base, mid = base, high = base;
  Set(&low, "innodb_io_capacity", 100);
  Set(&mid, "innodb_io_capacity", 6000);
  Set(&high, "innodb_io_capacity", 20000);
  Set(&high, "innodb_io_capacity_max", 40000);
  const double t_low = MeanThroughput(low, workload);
  const double t_mid = MeanThroughput(mid, workload);
  EXPECT_GT(t_mid, t_low);
}

TEST_F(EngineTest, WarmStartBeatsColdStart) {
  Configuration config = catalog_.DefaultConfiguration();
  const auto workload = workload::Tpcc();
  common::Rng rng_cold(5), rng_warm(5);
  const PerfResult cold = engine_.Run(config, workload, false, &rng_cold);
  const PerfResult warm = engine_.Run(config, workload, true, &rng_warm);
  // Warm buffer pool -> fewer misses -> at least as good throughput.
  EXPECT_GE(warm.throughput_tps, 0.95 * cold.throughput_tps);
  EXPECT_GE(warm.latents[kLatHitRatio], cold.latents[kLatHitRatio] - 0.02);
}

TEST_F(EngineTest, DeterministicGivenSeed) {
  Configuration config = catalog_.DefaultConfiguration();
  const PerfResult a = Run(config, workload::Tpcc(), 7);
  const PerfResult b = Run(config, workload::Tpcc(), 7);
  EXPECT_DOUBLE_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST_F(EngineTest, LatencyScalesWithPopulationOverThroughput) {
  const PerfResult result =
      Run(catalog_.DefaultConfiguration(), workload::Tpcc());
  const double avg_ms = 32.0 / result.throughput_tps * 1000.0;
  EXPECT_GT(result.latency_p95_ms, avg_ms);        // p95 above mean
  EXPECT_LT(result.latency_p95_ms, avg_ms * 4.0);  // but bounded
  EXPECT_GT(result.latency_p99_ms, result.latency_p95_ms);
}

TEST_F(EngineTest, PostgresCatalogRunsThroughSameEngine) {
  KnobCatalog pg = PostgresCatalog();
  SimulatedEngine engine(&pg, PostgresEvaluationInstance(),
                         PostgresEngineTuning());
  common::Rng rng(3);
  const PerfResult result =
      engine.Run(pg.DefaultConfiguration(), workload::Tpcc(), true, &rng);
  EXPECT_FALSE(result.boot_failed);
  EXPECT_GT(result.throughput_tps, 50.0);
}

TEST_F(EngineTest, MetricsReflectLatents) {
  common::Rng rng(11);
  std::array<double, kNumLatents> latents{};
  latents[kLatCommitRate] = 1000.0;
  const auto metrics = LatentsToMetrics(latents, nullptr);
  const auto& names = MetricNames();
  ASSERT_EQ(metrics.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "trx_commits") {
      EXPECT_NEAR(metrics[i], 1000.0, 1e-9);
    }
  }
}

TEST_F(EngineTest, MetricNamesAreUnique) {
  const auto& names = MetricNames();
  EXPECT_EQ(names.size(), kNumMetrics);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), kNumMetrics);
}

TEST_F(EngineTest, InstanceUpgradeImprovesThroughput) {
  Configuration tuned = catalog_.DefaultConfiguration();
  Set(&tuned, "innodb_buffer_pool_size", 1024);
  Set(&tuned, "innodb_flush_log_at_trx_commit", 2);
  Set(&tuned, "sync_binlog", 0);
  const auto workload = workload::Tpcc();
  SimulatedEngine small(&catalog_, InstanceTypeByName("B"),
                        MySqlEngineTuning());
  SimulatedEngine big(&catalog_, InstanceTypeByName("H"),
                      MySqlEngineTuning());
  common::Rng rng_a(5), rng_b(5);
  EXPECT_GT(big.Run(tuned, workload, true, &rng_b).throughput_tps,
            small.Run(tuned, workload, true, &rng_a).throughput_tps);
}

}  // namespace
}  // namespace hunter::cdb
