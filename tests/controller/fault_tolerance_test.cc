// Deterministic fault-injection integration tests for the clone fleet:
// retry-with-backoff for transient deploy failures, crash recovery,
// straggler timeouts with requeue, permanent clone death with replacement,
// and honest sim-clock accounting for all of it.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "controller/shared_pool.h"
#include "obs/journal.h"
#include "workload/workloads.h"

namespace hunter::controller {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() : catalog_(cdb::MySqlCatalog()) {}

  std::unique_ptr<Controller> Make(const ControllerOptions& options) {
    auto instance = std::make_unique<cdb::CdbInstance>(
        &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        42);
    return std::make_unique<Controller>(std::move(instance),
                                        workload::Tpcc(), options);
  }

  ControllerOptions BaseOptions(int clones) {
    ControllerOptions options;
    options.num_clones = clones;
    options.seed = 42;
    options.concurrent_actors = false;
    return options;
  }

  std::vector<std::vector<double>> Batch(size_t n) {
    return std::vector<std::vector<double>>(
        n, catalog_.NormalizeConfiguration(catalog_.DefaultConfiguration()));
  }

  cdb::KnobCatalog catalog_;
};

TEST_F(FaultToleranceTest, TransientDeployFailuresAreRetriedAndCharged) {
  ControllerOptions faulty = BaseOptions(4);
  faulty.faults.seed = 9;
  faulty.faults.transient_deploy_failure_rate = 0.3;
  faulty.max_retries = 6;
  auto faulty_controller = Make(faulty);
  auto clean_controller = Make(BaseOptions(4));

  const auto batch = Batch(12);
  const auto samples = faulty_controller->EvaluateBatch(batch);
  const auto clean_samples = clean_controller->EvaluateBatch(batch);

  ASSERT_EQ(samples.size(), 12u);
  const FaultStats& stats = faulty_controller->fault_stats();
  EXPECT_GT(stats.transient_deploy_failures, 0u);
  EXPECT_GT(stats.retries, 0u);
  size_t failed = 0;
  for (const Sample& sample : samples) {
    if (sample.evaluation_failed) {
      ++failed;
      continue;
    }
    EXPECT_FALSE(sample.boot_failed);
    EXPECT_GT(sample.throughput_tps, 0.0);
    EXPECT_GE(sample.attempts, 1);
  }
  EXPECT_EQ(failed, stats.failed_samples);
  // Retries and backoff cost simulated time relative to the clean fleet.
  EXPECT_GT(faulty_controller->clock().seconds(),
            clean_controller->clock().seconds());
  // Attempts dispatched = 12 evaluations + every re-dispatch.
  EXPECT_EQ(faulty_controller->total_stress_tests(), 12u + stats.retries);
  (void)clean_samples;
}

TEST_F(FaultToleranceTest, PermanentDeathReplacesCloneAndBatchCompletes) {
  ControllerOptions faulty = BaseOptions(3);
  faulty.faults.seed = 3;
  faulty.faults.permanent_deaths = {{1, 0}};  // clone 1 dies on first use
  auto faulty_controller = Make(faulty);
  auto clean_controller = Make(BaseOptions(3));

  const auto batch = Batch(6);
  const auto samples = faulty_controller->EvaluateBatch(batch);
  clean_controller->EvaluateBatch(batch);

  const FaultStats& stats = faulty_controller->fault_stats();
  EXPECT_EQ(stats.permanent_deaths, 1u);
  EXPECT_EQ(stats.reclones, 1u);
  EXPECT_EQ(stats.failed_samples, 0u);
  EXPECT_EQ(faulty_controller->num_clones(), 3);  // fleet size restored
  for (const Sample& sample : samples) {
    EXPECT_FALSE(sample.evaluation_failed);
    EXPECT_GT(sample.throughput_tps, 0.0);
  }
  // The replacement clone (fresh id) must not re-trigger the death schedule,
  // and the reclone cost must show up on the clock.
  EXPECT_GT(faulty_controller->clock().seconds(),
            clean_controller->clock().seconds());
}

TEST_F(FaultToleranceTest, ExhaustedRetriesClampLikeBootFailure) {
  ControllerOptions faulty = BaseOptions(2);
  faulty.faults.seed = 1;
  faulty.faults.transient_deploy_failure_rate = 1.0;  // nothing ever deploys
  faulty.max_retries = 2;
  auto controller = Make(faulty);

  const auto samples = controller->EvaluateBatch(Batch(2));
  ASSERT_EQ(samples.size(), 2u);
  for (const Sample& sample : samples) {
    EXPECT_TRUE(sample.evaluation_failed);
    EXPECT_TRUE(sample.boot_failed);  // existing clamp path for consumers
    EXPECT_DOUBLE_EQ(sample.fitness, cdb::kBootFailureFitness);
    EXPECT_DOUBLE_EQ(sample.throughput_tps, -1000.0);
    EXPECT_EQ(sample.attempts, 3);  // initial dispatch + 2 retries
  }
  EXPECT_EQ(controller->fault_stats().failed_samples, 2u);

  // The clamped samples are skipped by SharedPool::Best like boot failures.
  SharedPool pool;
  pool.AddBatch(samples);
  Sample best;
  EXPECT_FALSE(pool.Best(&best));
}

TEST_F(FaultToleranceTest, CrashesRecoverAndRetry) {
  ControllerOptions faulty = BaseOptions(2);
  faulty.faults.seed = 17;
  faulty.faults.crash_rate = 0.25;
  faulty.max_retries = 6;
  auto controller = Make(faulty);

  const auto samples = controller->EvaluateBatch(Batch(8));
  const FaultStats& stats = controller->fault_stats();
  EXPECT_GT(stats.crashes, 0u);
  for (const Sample& sample : samples) {
    if (!sample.evaluation_failed) {
      EXPECT_GT(sample.throughput_tps, 0.0);
    }
  }
}

TEST_F(FaultToleranceTest, StragglerTimeoutRequeuesThenAcceptsLastAttempt) {
  ControllerOptions faulty = BaseOptions(1);
  faulty.faults.seed = 4;
  faulty.faults.straggler_rate = 1.0;  // every run straggles
  faulty.faults.straggler_slowdown = 10.0;
  faulty.straggler_timeout_seconds = 300.0;  // < 10 * 142.7
  faulty.max_retries = 2;
  auto controller = Make(faulty);

  const double before = controller->clock().seconds();
  const auto samples = controller->EvaluateBatch(Batch(1));
  const FaultStats& stats = controller->fault_stats();
  // Two attempts are cancelled at the timeout; the final one (retry budget
  // spent) is accepted at full straggler cost so the config still resolves.
  EXPECT_EQ(stats.straggler_timeouts, 2u);
  EXPECT_FALSE(samples[0].evaluation_failed);
  EXPECT_GT(samples[0].throughput_tps, 0.0);
  EXPECT_EQ(samples[0].attempts, 3);
  // Clock saw both timeouts plus the accepted slow run.
  EXPECT_GT(controller->clock().seconds() - before,
            2 * 300.0 + 10.0 * Actor::kExecutionSeconds);
}

TEST_F(FaultToleranceTest, CancelledStragglerRetryReplaysTheSameRun) {
  // Each cancelled attempt rolls its clone back, so the accepted third
  // attempt starts from the state the first one did: its sample must equal,
  // bit for bit, the one a fault-free clone measures on the same seed.
  ControllerOptions faulty = BaseOptions(1);
  faulty.faults.seed = 4;
  faulty.faults.straggler_rate = 1.0;
  faulty.faults.straggler_slowdown = 10.0;
  faulty.straggler_timeout_seconds = 300.0;
  faulty.max_retries = 2;
  auto faulty_controller = Make(faulty);
  auto clean_controller = Make(BaseOptions(1));

  const Sample replayed = faulty_controller->EvaluateBatch(Batch(1))[0];
  const Sample clean = clean_controller->EvaluateBatch(Batch(1))[0];
  ASSERT_EQ(faulty_controller->fault_stats().straggler_timeouts, 2u);
  ASSERT_EQ(replayed.attempts, 3);
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(replayed.throughput_tps), bits(clean.throughput_tps));
  EXPECT_EQ(bits(replayed.latency_p95_ms), bits(clean.latency_p95_ms));
  ASSERT_EQ(replayed.metrics.size(), clean.metrics.size());
  for (size_t i = 0; i < clean.metrics.size(); ++i) {
    EXPECT_EQ(bits(replayed.metrics[i]), bits(clean.metrics[i])) << i;
  }
}

TEST_F(FaultToleranceTest, ConcurrentRunMatchesSerialRunExactly) {
  // The fault schedule is a pure function of (seed, clone, op), so the same
  // batch must produce identical samples, clock, and stats with and without
  // real threads: bit for bit, not within a few ulps.
  ControllerOptions serial = BaseOptions(4);
  serial.faults.seed = 21;
  serial.faults.transient_deploy_failure_rate = 0.2;
  serial.faults.crash_rate = 0.1;
  serial.faults.straggler_rate = 0.1;
  serial.faults.permanent_deaths = {{2, 1}};
  serial.straggler_timeout_seconds = 400.0;
  ControllerOptions threaded = serial;
  threaded.concurrent_actors = true;

  auto serial_controller = Make(serial);
  auto threaded_controller = Make(threaded);
  const auto batch = Batch(16);
  const auto serial_samples = serial_controller->EvaluateBatch(batch);
  const auto threaded_samples = threaded_controller->EvaluateBatch(batch);

  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(serial_controller->clock().seconds()),
            bits(threaded_controller->clock().seconds()));
  const FaultStats& a = serial_controller->fault_stats();
  const FaultStats& b = threaded_controller->fault_stats();
  EXPECT_EQ(a.transient_deploy_failures, b.transient_deploy_failures);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.straggler_timeouts, b.straggler_timeouts);
  EXPECT_EQ(a.permanent_deaths, b.permanent_deaths);
  EXPECT_EQ(a.retries, b.retries);
  ASSERT_EQ(serial_samples.size(), threaded_samples.size());
  for (size_t i = 0; i < serial_samples.size(); ++i) {
    const Sample& want = serial_samples[i];
    const Sample& got = threaded_samples[i];
    EXPECT_EQ(bits(want.fitness), bits(got.fitness)) << i;
    EXPECT_EQ(bits(want.throughput_tps), bits(got.throughput_tps)) << i;
    EXPECT_EQ(bits(want.latency_p95_ms), bits(got.latency_p95_ms)) << i;
    ASSERT_EQ(want.metrics.size(), got.metrics.size()) << i;
    for (size_t m = 0; m < want.metrics.size(); ++m) {
      EXPECT_EQ(bits(want.metrics[m]), bits(got.metrics[m])) << i << "/" << m;
    }
    EXPECT_EQ(want.attempts, got.attempts) << i;
    EXPECT_EQ(want.evaluation_failed, got.evaluation_failed) << i;
  }
}

TEST_F(FaultToleranceTest, ChargedSpansPartitionClockUnderMixedFaults) {
  // The journal's charged spans must account for every simulated second,
  // even along the messy paths: retries, backoff, crash recovery, straggler
  // timeouts with requeue, and clone death with replacement. Folding the
  // charged durations in record order replays the exact IEEE addition
  // sequence the clock saw, so the comparison is bit-exact — any double- or
  // missed charge breaks equality outright.
  ControllerOptions faulty = BaseOptions(3);
  faulty.faults.seed = 21;
  faulty.faults.transient_deploy_failure_rate = 0.2;
  faulty.faults.crash_rate = 0.1;
  faulty.faults.straggler_rate = 0.1;
  faulty.faults.permanent_deaths = {{2, 1}};
  faulty.straggler_timeout_seconds = 400.0;
  auto controller = Make(faulty);

  controller->DefaultPerformance();
  controller->EvaluateBatch(Batch(12));

  double folded = 0.0;
  size_t charged = 0;
  for (const obs::Record& r : controller->journal().records()) {
    if (r.type == obs::Record::Type::kSpan && r.span.charged) {
      folded += r.span.duration_seconds;
      ++charged;
    }
  }
  EXPECT_GT(charged, 0u);
  EXPECT_GT(controller->fault_stats().retries, 0u);  // the faults did fire
  EXPECT_DOUBLE_EQ(folded, controller->clock().seconds());
  EXPECT_DOUBLE_EQ(controller->journal().tracer().charged_seconds(),
                   controller->clock().seconds());
}

TEST_F(FaultToleranceTest, PermanentDeathChargesRestartDeploy) {
  // Regression: a clone that died mid-run charged only the partial
  // execution, silently dropping the deployment it had already performed.
  // The journal must show the aborted deploy at full restart cost.
  ControllerOptions faulty = BaseOptions(2);
  faulty.faults.seed = 3;
  faulty.faults.permanent_deaths = {{1, 0}};  // only fault source
  auto controller = Make(faulty);
  controller->EvaluateBatch(Batch(4));
  ASSERT_EQ(controller->fault_stats().permanent_deaths, 1u);

  size_t aborted_deploys = 0;
  for (const obs::Record& r : controller->journal().records()) {
    if (r.type != obs::Record::Type::kSpan) continue;
    if (r.span.name == "clone1_deploy_aborted") {
      ++aborted_deploys;
      EXPECT_EQ(r.span.stage, "deploy");
      EXPECT_DOUBLE_EQ(r.span.duration_seconds,
                       cdb::CdbInstance::kRestartDeploySeconds);
    }
  }
  EXPECT_EQ(aborted_deploys, 1u);
}

TEST_F(FaultToleranceTest, SameSeedReproducesIdenticalRun) {
  ControllerOptions options = BaseOptions(5);
  options.faults.seed = 33;
  options.faults.transient_deploy_failure_rate = 0.15;
  options.faults.crash_rate = 0.05;
  auto first = Make(options);
  auto second = Make(options);
  const auto batch = Batch(20);
  const auto a = first->EvaluateBatch(batch);
  const auto b = second->EvaluateBatch(batch);
  EXPECT_DOUBLE_EQ(first->clock().seconds(), second->clock().seconds());
  EXPECT_EQ(first->fault_stats().retries, second->fault_stats().retries);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].fitness, b[i].fitness);
  }
}

}  // namespace
}  // namespace hunter::controller
