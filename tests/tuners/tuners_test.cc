#include <memory>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "tuners/bestconfig.h"
#include "tuners/cdbtune.h"
#include "tuners/ottertune.h"
#include "tuners/qtune.h"
#include "tuners/random_tuner.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace hunter::tuners {
namespace {

constexpr size_t kDim = 65;

void ExpectValidProposals(Tuner* tuner, size_t count, size_t dim) {
  const auto proposals = tuner->Propose(count);
  ASSERT_EQ(proposals.size(), count);
  for (const auto& proposal : proposals) {
    ASSERT_EQ(proposal.size(), dim);
    for (double v : proposal) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

controller::Sample MakeSample(const std::vector<double>& knobs,
                              double fitness) {
  controller::Sample sample;
  sample.knobs = knobs;
  sample.metrics.assign(cdb::kNumMetrics, 1.0);
  sample.fitness = fitness;
  sample.throughput_tps = 1000 * (1 + fitness);
  sample.latency_p95_ms = 50 / (1 + fitness);
  return sample;
}

// Synthetic objective: fitness peaks at 0.7 in every dimension.
double SyntheticFitness(const std::vector<double>& knobs) {
  double sum = 0.0;
  for (double v : knobs) sum -= (v - 0.7) * (v - 0.7);
  return sum / static_cast<double>(knobs.size()) + 0.5;
}

template <typename T>
void DriveSyntheticLoop(T* tuner, int rounds, size_t batch) {
  for (int r = 0; r < rounds; ++r) {
    const auto proposals = tuner->Propose(batch);
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      samples.push_back(MakeSample(p, SyntheticFitness(p)));
    }
    tuner->Observe(samples);
  }
}

TEST(RandomTunerTest, ProposalsInRangeAndVaried) {
  RandomTuner tuner(kDim, 1);
  ExpectValidProposals(&tuner, 8, kDim);
  const auto a = tuner.Propose(1);
  const auto b = tuner.Propose(1);
  EXPECT_NE(a[0], b[0]);
}

TEST(BestConfigTest, ShrinksTowardGoodRegion) {
  BestConfigOptions options;
  options.round_size = 30;
  options.shrink_factor = 0.6;  // aggressive shrink for a quick test
  BestConfigTuner tuner(8, options, 3);
  // Recursive bound-and-search should find a near-optimal point (the
  // objective's maximum is 0.5 at x = 0.7 in every dimension).
  double best = -1e9;
  for (int r = 0; r < 20; ++r) {
    const auto proposals = tuner.Propose(30);
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      const double f = SyntheticFitness(p);
      best = std::max(best, f);
      samples.push_back(MakeSample(p, f));
    }
    tuner.Observe(samples);
  }
  EXPECT_GT(best, 0.47);
}

TEST(BestConfigTest, HandlesBootFailures) {
  BestConfigTuner tuner(4, BestConfigOptions{}, 4);
  auto proposals = tuner.Propose(4);
  std::vector<controller::Sample> samples;
  for (const auto& p : proposals) {
    controller::Sample s = MakeSample(p, -2.0);
    s.boot_failed = true;
    samples.push_back(s);
  }
  tuner.Observe(samples);       // must not crash or divide by zero
  ExpectValidProposals(&tuner, 4, 4);
}

TEST(OtterTuneTest, InitialSamplesThenModelBased) {
  OtterTuneOptions options;
  options.initial_samples = 6;
  OtterTuneTuner tuner(5, options, 5);
  ExpectValidProposals(&tuner, 6, 5);  // the LHS bootstrap
  // Feed observations and ask for model-based proposals.
  DriveSyntheticLoop(&tuner, 5, 6);
  ExpectValidProposals(&tuner, 3, 5);
}

TEST(OtterTuneTest, ConvergesOnSyntheticObjective) {
  OtterTuneOptions options;
  options.initial_samples = 10;
  options.candidates = 200;
  OtterTuneTuner tuner(4, options, 6);
  double best = -1e9;
  for (int r = 0; r < 40; ++r) {
    const auto proposals = tuner.Propose(2);
    std::vector<controller::Sample> samples;
    for (const auto& p : proposals) {
      const double f = SyntheticFitness(p);
      best = std::max(best, f);
      samples.push_back(MakeSample(p, f));
    }
    tuner.Observe(samples);
  }
  EXPECT_GT(best, 0.47);  // optimum is 0.5
}

TEST(CdbTuneTest, WarmupThenPolicyProposals) {
  CdbTuneOptions options;
  options.random_warmup = 4;
  CdbTuneTuner tuner(cdb::kNumMetrics, kDim, {}, options, 7);
  ExpectValidProposals(&tuner, 8, kDim);
  DriveSyntheticLoop(&tuner, 3, 8);
  ExpectValidProposals(&tuner, 8, kDim);
}

TEST(CdbTuneTest, LearnsFromRewardSignal) {
  CdbTuneOptions options;
  options.random_warmup = 20;
  options.noise_sigma_start = 0.3;
  options.noise_sigma_end = 0.02;
  options.noise_decay_steps = 150;
  CdbTuneTuner tuner(cdb::kNumMetrics, 6, {}, options, 8);
  DriveSyntheticLoop(&tuner, 120, 2);
  // The learned policy (with annealed noise) should propose near 0.7.
  const auto proposals = tuner.Propose(10);
  double mean = 0.0;
  for (const auto& p : proposals) {
    for (double v : p) mean += v;
  }
  mean /= 10 * 6;
  EXPECT_NEAR(mean, 0.7, 0.2);
}

TEST(QTuneTest, WorkloadFeaturesAreBoundedAndWorkloadSpecific) {
  const auto tpcc = WorkloadFeatures(workload::Tpcc());
  const auto sysbench = WorkloadFeatures(workload::SysbenchReadOnly());
  EXPECT_EQ(tpcc.size(), sysbench.size());
  EXPECT_NE(tpcc, sysbench);
  for (double f : tpcc) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.5);
  }
}

TEST(QTuneTest, ProposesValidConfigs) {
  CdbTuneOptions options;
  options.random_warmup = 2;
  QTuneTuner tuner(cdb::kNumMetrics, kDim, workload::Tpcc(), options, 9);
  EXPECT_EQ(tuner.name(), "QTune");
  ExpectValidProposals(&tuner, 4, kDim);
}

TEST(HarnessTest, RespectsBudgetAndRecordsCurve) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 1);
  controller::ControllerOptions copts;
  copts.num_clones = 1;
  copts.concurrent_actors = false;
  controller::Controller controller(std::move(instance), workload::Tpcc(),
                                    copts);
  RandomTuner tuner(catalog.size(), 2);
  HarnessOptions options;
  options.budget_hours = 1.0;  // ~20 steps
  const TuningResult result = RunTuning(&tuner, &controller, options);
  EXPECT_GT(result.steps, 10u);
  EXPECT_LT(result.steps, 40u);
  EXPECT_FALSE(result.curve.empty());
  EXPECT_GT(result.best_throughput, 0.0);
  // Curve is monotone non-decreasing in best throughput.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i].best_throughput,
              result.curve[i - 1].best_throughput);
    EXPECT_GE(result.curve[i].hours, result.curve[i - 1].hours);
  }
  EXPECT_LE(result.recommendation_hours, result.curve.back().hours);
}

TEST(TunerFaultToleranceTest, BaselinesTolerateEvaluationFailedSamples) {
  // A sample the clone fleet gave up on carries the boot-failure clamp plus
  // evaluation_failed; every baseline must keep proposing valid configs
  // after observing a batch dominated by such samples.
  controller::Sample failed = MakeSample(std::vector<double>(kDim, 0.5), 0.0);
  failed.boot_failed = true;
  failed.evaluation_failed = true;
  failed.fitness = cdb::kBootFailureFitness;
  failed.throughput_tps = -1000.0;
  const controller::Sample ok = MakeSample(std::vector<double>(kDim, 0.6), 0.2);
  const std::vector<controller::Sample> batch = {failed, ok, failed};

  BestConfigTuner bestconfig(kDim, BestConfigOptions{}, 1);
  OtterTuneTuner ottertune(kDim, OtterTuneOptions{}, 2);
  CdbTuneTuner cdbtune(cdb::kNumMetrics, kDim, {}, CdbTuneOptions{}, 3);
  RandomTuner random(kDim, 4);
  std::vector<Tuner*> tuners = {&bestconfig, &ottertune, &cdbtune, &random};
  for (Tuner* tuner : tuners) {
    for (int round = 0; round < 3; ++round) {
      (void)tuner->Propose(3);
      tuner->Observe(batch);
    }
    ExpectValidProposals(tuner, 3, kDim);
  }
}

TEST(HarnessTest, TargetThroughputStopsEarly) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 1);
  controller::ControllerOptions copts;
  copts.num_clones = 1;
  copts.concurrent_actors = false;
  controller::Controller controller(std::move(instance), workload::Tpcc(),
                                    copts);
  RandomTuner tuner(catalog.size(), 3);
  HarnessOptions options;
  options.budget_hours = 10.0;
  options.target_throughput = 1.0;  // met immediately
  const TuningResult result = RunTuning(&tuner, &controller, options);
  EXPECT_EQ(result.curve.size(), 1u);
}

}  // namespace
}  // namespace hunter::tuners
