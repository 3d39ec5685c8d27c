#include "controller/controller.h"

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "controller/shared_pool.h"
#include "workload/workloads.h"

namespace hunter::controller {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : catalog_(cdb::MySqlCatalog()) {}

  std::unique_ptr<Controller> Make(int clones) {
    auto instance = std::make_unique<cdb::CdbInstance>(
        &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        42);
    ControllerOptions options;
    options.num_clones = clones;
    options.seed = 42;
    options.concurrent_actors = false;
    return std::make_unique<Controller>(std::move(instance),
                                        workload::Tpcc(), options);
  }

  std::vector<double> DefaultNormalized() {
    return catalog_.NormalizeConfiguration(catalog_.DefaultConfiguration());
  }

  // After only rejected calls, `controller` (made by Make(2), its journal
  // then holding `records` records) has charged, run, recorded and deployed
  // nothing, and a valid batch returns what a fresh controller's first
  // batch returns, at the same clock.
  void ExpectRejectionsLeftNoTrace(Controller* controller, size_t records) {
    EXPECT_EQ(controller->clock().seconds(), 0.0);
    EXPECT_EQ(controller->total_stress_tests(), 0u);
    EXPECT_EQ(controller->journal().records().size(), records);
    EXPECT_EQ(controller->user_instance().active_configuration(),
              catalog_.DefaultConfiguration());

    std::vector<double> tuned = DefaultNormalized();
    tuned[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 0.8;
    const std::vector<std::vector<double>> batch = {DefaultNormalized(),
                                                    tuned};
    auto fresh = Make(2);
    const std::vector<Sample> want = fresh->EvaluateBatch(batch);
    const std::vector<Sample> got = controller->EvaluateBatch(batch);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].knobs, want[i].knobs) << "sample " << i;
      EXPECT_EQ(got[i].metrics, want[i].metrics) << "sample " << i;
      EXPECT_EQ(got[i].throughput_tps, want[i].throughput_tps) << "sample " << i;
      EXPECT_EQ(got[i].latency_p95_ms, want[i].latency_p95_ms)
          << "sample " << i;
      EXPECT_EQ(got[i].fitness, want[i].fitness) << "sample " << i;
      EXPECT_EQ(got[i].attempts, want[i].attempts) << "sample " << i;
    }
    EXPECT_EQ(controller->clock().seconds(), fresh->clock().seconds());
    EXPECT_EQ(controller->total_stress_tests(), fresh->total_stress_tests());
  }

  cdb::KnobCatalog catalog_;
};

TEST_F(ControllerTest, DefaultPerformanceIsPositiveAndCached) {
  auto controller = Make(1);
  const auto& first = controller->DefaultPerformance();
  EXPECT_GT(first.throughput_tps, 0.0);
  const double clock_after_first = controller->clock().seconds();
  controller->DefaultPerformance();  // cached, no extra time
  EXPECT_DOUBLE_EQ(controller->clock().seconds(), clock_after_first);
}

TEST_F(ControllerTest, DefaultPerformanceChargesDeployCost) {
  // Regression: resetting the clone to the default configuration is a real
  // deploy and must be charged, not just the measurement runs.
  auto controller = Make(1);
  controller->DefaultPerformance();
  // The clone already runs the default config, so the reset takes the
  // dynamic-deploy path; two measurement runs follow, each paying execution
  // plus metric collection (the collection term used to be dropped).
  EXPECT_DOUBLE_EQ(controller->clock().seconds(),
                   cdb::CdbInstance::kDynamicDeploySeconds +
                       2.0 * Actor::kExecutionSeconds +
                       2.0 * Actor::kCollectionSeconds);
}

TEST_F(ControllerTest, PoolSizedToClonesBoundedByHardware) {
  // Regression: the pool was silently capped at 8 threads, serializing the
  // paper's 20-clone Fig. 12 configuration.
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 20;
  options.concurrent_actors = true;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t expected =
      hw == 0 ? 20u : std::min<size_t>(20u, static_cast<size_t>(hw));
  EXPECT_EQ(controller.pool_threads(), expected);
}

TEST_F(ControllerTest, MaxPoolThreadsOptionOverridesSizing) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 6;
  options.concurrent_actors = true;
  options.max_pool_threads = 3;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  EXPECT_EQ(controller.pool_threads(), 3u);
}

TEST_F(ControllerTest, EvaluateBatchReturnsOneSamplePerConfig) {
  auto controller = Make(2);
  const auto samples = controller->EvaluateBatch(
      {DefaultNormalized(), DefaultNormalized(), DefaultNormalized()});
  ASSERT_EQ(samples.size(), 3u);
  for (const auto& sample : samples) {
    EXPECT_FALSE(sample.boot_failed);
    EXPECT_EQ(sample.metrics.size(), cdb::kNumMetrics);
    EXPECT_EQ(sample.knobs.size(), catalog_.size());
  }
}

TEST_F(ControllerTest, DefaultConfigHasNearZeroFitness) {
  auto controller = Make(1);
  const auto samples = controller->EvaluateBatch({DefaultNormalized()});
  EXPECT_NEAR(samples[0].fitness, 0.0, 0.25);
}

TEST_F(ControllerTest, ParallelCloneChargesOneRoundOfTime) {
  auto c1 = Make(1);
  auto c4 = Make(4);
  c1->DefaultPerformance();
  c4->DefaultPerformance();
  const double t1_start = c1->clock().seconds();
  const double t4_start = c4->clock().seconds();
  std::vector<std::vector<double>> batch(4, DefaultNormalized());
  c1->EvaluateBatch(batch);
  c4->EvaluateBatch(batch);
  const double t1 = c1->clock().seconds() - t1_start;
  const double t4 = c4->clock().seconds() - t4_start;
  // 4 configs on 1 clone = 4 rounds; on 4 clones = 1 round.
  EXPECT_NEAR(t1 / t4, 4.0, 0.5);
}

TEST_F(ControllerTest, BootFailureChargesDeployOnly) {
  auto controller = Make(1);
  controller->DefaultPerformance();
  std::vector<double> bad = DefaultNormalized();
  bad[static_cast<size_t>(catalog_.IndexOf("innodb_buffer_pool_size"))] = 1.0;
  bad[static_cast<size_t>(catalog_.IndexOf("max_connections"))] = 1.0;
  const double before = controller->clock().seconds();
  const auto samples = controller->EvaluateBatch({bad});
  EXPECT_TRUE(samples[0].boot_failed);
  EXPECT_DOUBLE_EQ(samples[0].throughput_tps, -1000.0);
  // No workload execution happened: just the failed deployment attempt.
  EXPECT_LT(controller->clock().seconds() - before, 30.0);
}

TEST_F(ControllerTest, ChargeModelTimeAdvancesClock) {
  auto controller = Make(1);
  const double before = controller->clock().seconds();
  controller->ChargeModelTime(0.071);
  EXPECT_DOUBLE_EQ(controller->clock().seconds(), before + 0.071);
}

TEST_F(ControllerTest, DeployToUserUpdatesUserInstance) {
  auto controller = Make(1);
  std::vector<double> tuned = DefaultNormalized();
  tuned[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 0.8;
  controller->DeployToUser(tuned);
  const auto& config = controller->user_instance().active_configuration();
  const size_t io_cap =
      static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"));
  EXPECT_GT(config[io_cap], 200.0);  // moved off the default
}

TEST_F(ControllerTest, WorkloadDriftRemeasuresBaseline) {
  auto controller = Make(1);
  const double t_before = controller->DefaultPerformance().throughput_tps;
  controller->SetWorkload(workload::SysbenchWriteOnly());
  const double t_after = controller->DefaultPerformance().throughput_tps;
  EXPECT_EQ(controller->workload().name, "sysbench_wo");
  // Baselines differ across workloads (almost surely).
  EXPECT_NE(t_before, t_after);
}

TEST_F(ControllerTest, TracksStressTestCount) {
  auto controller = Make(2);
  controller->EvaluateBatch({DefaultNormalized(), DefaultNormalized()});
  EXPECT_EQ(controller->total_stress_tests(), 2u);
}

TEST_F(ControllerTest, RejectsConfigurationsOfTheWrongLength) {
  // The catalog checks a configuration's length only with an assert, which
  // release builds drop, so a short configuration used to be read past its
  // end and a long one past the catalog's. Both are rejected before the
  // baseline is measured or anything is dispatched, charged or recorded.
  auto controller = Make(2);
  std::vector<double> short_config = DefaultNormalized();
  short_config.pop_back();
  std::vector<double> long_config = DefaultNormalized();
  long_config.push_back(0.5);
  const size_t knobs = catalog_.size();
  const size_t records = controller->journal().records().size();

  EXPECT_THROW(controller->EvaluateBatch({short_config}),
               std::invalid_argument);
  try {
    controller->EvaluateBatch({DefaultNormalized(), long_config});
    ADD_FAILURE() << "a long configuration was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "configuration 1 has " + std::to_string(knobs + 1) +
                  " values, but the catalog has " + std::to_string(knobs) +
                  " knobs");
  }
  EXPECT_THROW(controller->DeployToUser(short_config), std::invalid_argument);
  EXPECT_THROW(controller->DeployToUser(long_config), std::invalid_argument);
  ExpectRejectionsLeftNoTrace(controller.get(), records);
}

TEST_F(ControllerTest, RejectsNonFiniteConfigurations) {
  // Denormalize passes NaN through, so a NaN knob used to come back as a
  // failed-boot sample carrying the NaN into the tuner's pool. A NaN or
  // infinite value is rejected like a wrong length: before the baseline is
  // measured or anything is dispatched, charged or recorded.
  auto controller = Make(2);
  const std::string knob = "innodb_io_capacity";
  const size_t index = static_cast<size_t>(catalog_.IndexOf(knob));
  const size_t records = controller->journal().records().size();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> config = DefaultNormalized();
    config[index] = bad;
    try {
      controller->EvaluateBatch({DefaultNormalized(), config});
      ADD_FAILURE() << "a configuration holding " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "configuration 1 has non-finite value " +
                    std::to_string(bad) + " for knob " + knob);
    }
    EXPECT_THROW(controller->DeployToUser(config), std::invalid_argument)
        << bad;
  }
  ExpectRejectionsLeftNoTrace(controller.get(), records);
}

TEST_F(ControllerTest, ConcurrentActorsMatchSerialSemantics) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 4;
  options.seed = 42;
  options.concurrent_actors = true;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  const auto samples = controller.EvaluateBatch(
      std::vector<std::vector<double>>(8, DefaultNormalized()));
  ASSERT_EQ(samples.size(), 8u);
  for (const auto& sample : samples) EXPECT_GT(sample.throughput_tps, 0.0);
}

TEST(SharedPoolTest, AddAndSnapshot) {
  SharedPool pool;
  Sample sample;
  sample.fitness = 0.5;
  pool.Add(sample);
  pool.AddBatch({sample, sample});
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.Snapshot().size(), 3u);
}

TEST(SharedPoolTest, BestSkipsBootFailures) {
  SharedPool pool;
  Sample failed;
  failed.fitness = 10.0;  // better fitness but failed
  failed.boot_failed = true;
  Sample ok;
  ok.fitness = 0.3;
  pool.Add(failed);
  pool.Add(ok);
  Sample best;
  ASSERT_TRUE(pool.Best(&best));
  EXPECT_DOUBLE_EQ(best.fitness, 0.3);
}

TEST(SharedPoolTest, BestOfEmptyPoolIsFalse) {
  SharedPool pool;
  Sample best;
  EXPECT_FALSE(pool.Best(&best));
  Sample failed;
  failed.boot_failed = true;
  pool.Add(failed);
  EXPECT_FALSE(pool.Best(&best));
}

TEST(SharedPoolTest, ClearEmptiesPool) {
  SharedPool pool;
  pool.Add(Sample{});
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
}

TEST(SharedPoolTest, ConcurrentAddBatchBestSnapshotStress) {
  // Hammer the pool from parallel writers and readers; run under
  // HUNTER_SANITIZE=thread via `ctest -L concurrency` to catch races.
  SharedPool pool;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> best_calls{0};
  // Raw threads are the point here: the test hammers SharedPool from
  // outside common::ThreadPool to expose races under TSan.
  // hunterlint: allow(no-naked-thread) stress test needs raw threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &best_calls, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Sample sample;
        sample.fitness = 0.001 * (t * kOpsPerThread + i);
        if (i % 3 == 0) {
          pool.AddBatch({sample, sample});
        } else {
          pool.Add(sample);
        }
        if (i % 7 == 0) {
          Sample best;
          if (pool.Best(&best)) ++best_calls;
        }
        if (i % 31 == 0) (void)pool.Snapshot().size();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Each thread adds 2 samples on i%3==0 (67 of 200) and 1 otherwise.
  constexpr int kPerThread = 67 * 2 + 133;
  EXPECT_EQ(pool.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_GT(best_calls.load(), 0);
  Sample best;
  ASSERT_TRUE(pool.Best(&best));
  EXPECT_DOUBLE_EQ(best.fitness, 0.001 * (kThreads * kOpsPerThread - 1));
}

}  // namespace
}  // namespace hunter::controller
