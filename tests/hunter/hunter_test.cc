#include "hunter/hunter.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/fitness.h"
#include "cdb/knob_catalog.h"
#include "cdb/metric_catalog.h"
#include "controller/controller.h"
#include "hunter/recommender.h"
#include "workload/workloads.h"

namespace hunter::core {
namespace {

class HunterTest : public ::testing::Test {
 protected:
  HunterTest() : catalog_(cdb::MySqlCatalog()) {}

  std::unique_ptr<controller::Controller> MakeController(int clones) {
    auto instance = std::make_unique<cdb::CdbInstance>(
        &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        42);
    controller::ControllerOptions options;
    options.num_clones = clones;
    options.seed = 42;
    options.concurrent_actors = false;
    return std::make_unique<controller::Controller>(
        std::move(instance), workload::Tpcc(), options);
  }

  HunterOptions FastOptions() {
    HunterOptions options;
    options.ga.target_samples = 30;
    options.ga.population = 10;
    options.optimizer.forest.num_trees = 20;
    options.recommender.warm_start_updates = 20;
    return options;
  }

  cdb::KnobCatalog catalog_;
};

TEST_F(HunterTest, PhaseTransitionAfterGaBudget) {
  auto controller = MakeController(1);
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 7);
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kSampleFactory);
  for (int round = 0; round < 35; ++round) {
    const auto proposals = tuner.Propose(1);
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kRecommend);
  EXPECT_GE(tuner.shared_pool().size(), 30u);
  ASSERT_NE(tuner.recommender(), nullptr);
  EXPECT_EQ(tuner.recommender()->space().selected_knobs.size(), 20u);
}

TEST_F(HunterTest, FullLoopImprovesOverDefaults) {
  auto controller = MakeController(2);
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 8);
  tuners::HarnessOptions harness;
  harness.budget_hours = 8.0;
  const tuners::TuningResult result =
      tuners::RunTuning(&tuner, controller.get(), harness);
  const double default_throughput =
      controller->DefaultPerformance().throughput_tps;
  EXPECT_GT(result.best_throughput, 1.2 * default_throughput);
  EXPECT_GT(result.best_sample.fitness, 0.0);
}

TEST_F(HunterTest, SurvivesFaultyCloneFleet) {
  // Full tuning loop on a fleet with transient failures, crashes, a
  // straggler policy, and one permanent clone death: no hangs, the best
  // configuration still clearly beats the defaults, and no infra-failure
  // sentinel leaks into the Shared Pool.
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  controller::ControllerOptions coptions;
  coptions.num_clones = 4;
  coptions.seed = 42;
  coptions.concurrent_actors = false;
  coptions.faults.seed = 13;
  coptions.faults.transient_deploy_failure_rate = 0.12;
  coptions.faults.crash_rate = 0.04;
  coptions.faults.straggler_rate = 0.05;
  coptions.faults.permanent_deaths = {{2, 3}};
  coptions.straggler_timeout_seconds = 3.0 * controller::Actor::kExecutionSeconds;
  auto controller = std::make_unique<controller::Controller>(
      std::move(instance), workload::Tpcc(), coptions);

  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 8);
  tuners::HarnessOptions harness;
  harness.budget_hours = 8.0;
  const tuners::TuningResult result =
      tuners::RunTuning(&tuner, controller.get(), harness);

  const controller::FaultStats& stats = controller->fault_stats();
  EXPECT_GT(stats.transient_deploy_failures, 0u);
  EXPECT_EQ(stats.permanent_deaths, 1u);
  const double default_throughput =
      controller->DefaultPerformance().throughput_tps;
  EXPECT_GT(result.best_throughput, 1.2 * default_throughput);
  for (const controller::Sample& sample : tuner.shared_pool().Snapshot()) {
    EXPECT_FALSE(sample.evaluation_failed);
  }
}

TEST_F(HunterTest, AblationWithoutGaUsesRandomWarmup) {
  auto controller = MakeController(1);
  HunterOptions options = FastOptions();
  options.use_ga = false;
  options.random_warmup_without_ga = 5;
  HunterTuner tuner(&catalog_, Rules(), options, 9);
  for (int round = 0; round < 8; ++round) {
    const auto proposals = tuner.Propose(1);
    ASSERT_FALSE(proposals.empty());
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kRecommend);
}

TEST_F(HunterTest, AblationFlagsPropagate) {
  auto controller = MakeController(1);
  HunterOptions options = FastOptions();
  options.optimizer.use_pca = false;
  options.optimizer.use_rf = false;
  options.recommender.use_fes = false;
  HunterTuner tuner(&catalog_, Rules(), options, 10);
  for (int round = 0; round < 35; ++round) {
    tuner.Observe(controller->EvaluateBatch(tuner.Propose(1)));
  }
  ASSERT_NE(tuner.recommender(), nullptr);
  // No PCA: raw 63-metric state. No RF: all 65 knobs tuned.
  EXPECT_EQ(tuner.recommender()->space().state_dim, cdb::kNumMetrics);
  EXPECT_EQ(tuner.recommender()->space().selected_knobs.size(),
            catalog_.size());
}

TEST_F(HunterTest, RulesAreEnforcedInEveryPhase) {
  auto controller = MakeController(1);
  Rules rules;
  rules.FixKnob("innodb_flush_log_at_trx_commit", 1);
  HunterTuner tuner(&catalog_, rules, FastOptions(), 11);
  const size_t flush = static_cast<size_t>(
      catalog_.IndexOf("innodb_flush_log_at_trx_commit"));
  for (int round = 0; round < 40; ++round) {
    const auto proposals = tuner.Propose(1);
    for (const auto& p : proposals) {
      EXPECT_DOUBLE_EQ(catalog_.Denormalize(flush, p[flush]), 1.0)
          << "round " << round;
    }
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
}

TEST_F(HunterTest, ExportBeforeRecommendPhaseIsEmpty) {
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 12);
  EXPECT_FALSE(tuner.ExportModel().has_value());
}

TEST_F(HunterTest, ModelReuseRoundTrip) {
  auto controller = MakeController(1);
  HunterTuner teacher(&catalog_, Rules(), FastOptions(), 13);
  for (int round = 0; round < 40; ++round) {
    teacher.Observe(controller->EvaluateBatch(teacher.Propose(1)));
  }
  const auto model = teacher.ExportModel();
  ASSERT_TRUE(model.has_value());
  EXPECT_FALSE(model->signature.empty());
  EXPECT_FALSE(model->ddpg_parameters.empty());

  // A fresh HUNTER imports the model and skips straight to recommending.
  HunterTuner student(&catalog_, Rules(), FastOptions(), 14);
  ASSERT_TRUE(student.ImportModel(*model));
  EXPECT_EQ(student.phase(), HunterTuner::Phase::kRecommend);
  auto controller2 = MakeController(1);
  const auto proposals = student.Propose(2);
  ASSERT_EQ(proposals.size(), 2u);
  const auto samples = controller2->EvaluateBatch(proposals);
  EXPECT_FALSE(samples[0].boot_failed);
}

TEST_F(HunterTest, ImportModelRejectsModelsThatDoNotFit) {
  auto controller = MakeController(1);
  HunterTuner teacher(&catalog_, Rules(), FastOptions(), 13);
  for (int round = 0; round < 40; ++round) {
    teacher.Observe(controller->EvaluateBatch(teacher.Propose(1)));
  }
  const auto model = teacher.ExportModel();
  ASSERT_TRUE(model.has_value());

  HunterModel too_short = *model;
  too_short.ddpg_parameters.resize(2);
  HunterModel too_long = *model;
  too_long.ddpg_parameters.push_back(0.0);
  HunterModel short_base = *model;
  short_base.base_config.pop_back();
  HunterModel knob_out_of_range = *model;
  knob_out_of_range.space.selected_knobs.back() = catalog_.size();
  // State encodings that are not state_dim wide. Imported, the first wrote
  // the full metric vector into state_dim-sized arrays, and the second read
  // past its 2-wide PCA means while projecting the metric vector.
  ASSERT_TRUE(model->space.use_pca);
  ASSERT_NE(model->space.state_dim, cdb::kNumMetrics);
  HunterModel pca_dropped = *model;
  pca_dropped.space.use_pca = false;
  HunterModel narrow_pca = *model;
  ASSERT_TRUE(narrow_pca.space.pca.LoadState(
      {2, 1, 0.5, 0.5, 1.0, 1.0, 0.75, 0.25, 1.0, 0.0, 0.0, 1.0}));
  HunterModel state_wider_than_pca = *model;
  state_wider_than_pca.space.state_dim = cdb::kNumMetrics + 1;
  // Weights that fit the network but not a trained one (whose largest |p|
  // is about 2). Imported, all-1e200 weights drive the proposals to NaN
  // within a few rounds, and the Controller's non-finite check would then
  // end the run.
  HunterModel absurd_weights = *model;
  std::fill(absurd_weights.ddpg_parameters.begin(),
            absurd_weights.ddpg_parameters.end(), 1e200);
  HunterModel nan_weight = *model;
  nan_weight.ddpg_parameters.back() = std::numeric_limits<double>::quiet_NaN();
  HunterTuner student(&catalog_, Rules(), FastOptions(), 14);
  for (const HunterModel* bad :
       {&too_short, &too_long, &short_base, &knob_out_of_range, &pca_dropped,
        &narrow_pca, &state_wider_than_pca, &absurd_weights, &nan_weight}) {
    EXPECT_FALSE(student.ImportModel(*bad));
    EXPECT_EQ(student.phase(), HunterTuner::Phase::kSampleFactory);
    EXPECT_EQ(student.recommender(), nullptr);
  }

  // The rejections left the student as it was: it now imports the good
  // model and proposes exactly what a tuner that never saw them does.
  HunterTuner fresh(&catalog_, Rules(), FastOptions(), 14);
  ASSERT_TRUE(student.ImportModel(*model));
  ASSERT_TRUE(fresh.ImportModel(*model));
  EXPECT_EQ(student.Propose(3), fresh.Propose(3));
}

TEST_F(HunterTest, DdpgTrainStepsCountsUpdatesThatRan) {
  // Four clones: every round brings more samples than the two samples'
  // worth of updates Recommender::Observe runs per round.
  auto controller = MakeController(4);
  HunterOptions options = FastOptions();
  options.reoptimize_every = 40;  // a refresh every ten rounds
  HunterTuner tuner(&catalog_, Rules(), options, 15);
  tuner.BindObservability(&controller->journal());
  const size_t per_sample =
      static_cast<size_t>(options.recommender.train_steps_per_sample);
  size_t observe_steps = 0;
  for (int round = 0; round < 40; ++round) {
    const auto proposals = tuner.Propose(4);
    const bool recommending =
        tuner.phase() == HunterTuner::Phase::kRecommend;
    const auto samples = controller->EvaluateBatch(proposals);
    tuner.Observe(samples);
    const size_t usable = static_cast<size_t>(std::count_if(
        samples.begin(), samples.end(),
        [](const controller::Sample& s) { return !s.evaluation_failed; }));
    if (recommending) {
      observe_steps += std::min(per_sample * usable, 2 * per_sample);
    }
  }
  obs::MetricsRegistry* registry = controller->journal().registry();
  const double refreshes =
      registry->RegisterCounter("hunter.sso_refreshes")->value();
  EXPECT_GE(refreshes, 3.0);
  EXPECT_EQ(registry->RegisterCounter("hunter.ddpg_train_steps")->value(),
            refreshes * options.recommender.warm_start_updates +
                static_cast<double>(observe_steps));
}

TEST_F(HunterTest, FailedEvaluationKeepsSamplesPairedWithTheirProposals) {
  auto controller = MakeController(3);
  HunterOptions options = FastOptions();
  options.use_ga = false;
  HunterTuner teacher(&catalog_, Rules(), options, 16);
  for (int round = 0;
       round < 10 && teacher.phase() != HunterTuner::Phase::kRecommend;
       ++round) {
    teacher.Observe(controller->EvaluateBatch(teacher.Propose(3)));
  }
  const auto model = teacher.ExportModel();
  ASSERT_TRUE(model.has_value());

  // An imported model has no best sample yet, so the student's first
  // proposals come from the policy plus OU noise and differ. FES is pinned
  // to exploitation without noise or restarts: once a best sample exists,
  // every proposal repeats its selected knobs.
  options.reoptimize_every = 0;
  options.recommender.fes_p_current_start = 0.0;
  options.recommender.fes_p_current_cap = 0.0;
  options.recommender.fes_best_noise = 0.0;
  options.recommender.random_restart_prob = 0.0;
  HunterTuner student(&catalog_, Rules(), options, 17);
  ASSERT_TRUE(student.ImportModel(*model));
  const auto proposals = student.Propose(3);
  std::vector<controller::Sample> samples =
      controller->EvaluateBatch(proposals);
  ASSERT_EQ(samples.size(), 3u);
  ASSERT_FALSE(samples[2].boot_failed);
  // Proposal 1's evaluation fails; proposal 2 becomes the best sample.
  samples[1].boot_failed = true;
  samples[1].evaluation_failed = true;
  samples[1].fitness = cdb::kBootFailureFitness;
  samples[2].fitness = samples[0].fitness + 1.0;
  student.Observe(samples);

  const auto next = student.Propose(1);
  ASSERT_EQ(next.size(), 1u);
  auto selected_knobs = [&student](const std::vector<double>& config) {
    std::vector<double> values;
    for (const size_t knob : student.recommender()->space().selected_knobs) {
      values.push_back(config[knob]);
    }
    return values;
  };
  EXPECT_NE(selected_knobs(proposals[1]), selected_knobs(proposals[2]));
  EXPECT_EQ(selected_knobs(next[0]), selected_knobs(proposals[2]));
}

TEST_F(HunterTest, ModelRegistryMatchesBySignature) {
  ModelRegistry registry;
  HunterModel model;
  model.space.state_dim = 13;
  model.space.selected_knobs = {1, 2, 3};
  model.signature = model.space.Signature();
  registry.Store(model);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Match(model.signature).has_value());
  EXPECT_FALSE(registry.Match("v7:9,").has_value());
}

TEST(RecommenderTest, FesProbabilitySatisfiesPaperEquations) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  Rules rules;
  OptimizedSpace space;
  space.state_dim = 5;
  space.use_pca = false;
  space.selected_knobs = {0, 1, 2};
  RecommenderOptions options;
  Recommender recommender(&catalog, &rules, space, options, 1);
  // Eq. boundary condition: P(A_c)|_{t=0} = 0.3.
  EXPECT_NEAR(recommender.ProbabilityCurrent(0), 0.3, 1e-12);
  // Eq. 7: strictly increasing (until the cap).
  double previous = 0.0;
  for (size_t t = 0; t < 400; t += 20) {
    const double p = recommender.ProbabilityCurrent(t);
    EXPECT_GE(p, previous);
    previous = p;
  }
  // Eq. 6: approaches its limit for large t.
  EXPECT_NEAR(recommender.ProbabilityCurrent(100000),
              options.fes_p_current_cap, 1e-9);
}

TEST(RecommenderTest, WarmStartSeedsReplayAndTracksBest) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  Rules rules;
  OptimizedSpace space;
  space.state_dim = 4;
  space.use_pca = false;  // state_dim mismatch handled by encode? use raw
  space.selected_knobs = {0, 1};
  RecommenderOptions options;
  options.warm_start_updates = 5;
  Recommender recommender(&catalog, &rules, space, options, 2);

  std::vector<controller::Sample> pool(3);
  for (size_t i = 0; i < 3; ++i) {
    pool[i].knobs.assign(catalog.size(), 0.5);
    pool[i].knobs[0] = 0.1 * static_cast<double>(i + 1);
    pool[i].metrics.assign(4, static_cast<double>(i));
    pool[i].fitness = static_cast<double>(i) * 0.1;
  }
  recommender.WarmStart(pool, pool[2].knobs);
  EXPECT_DOUBLE_EQ(recommender.best_fitness(), 0.2);
  EXPECT_EQ(recommender.best_full_config(), pool[2].knobs);
}

}  // namespace
}  // namespace hunter::core
