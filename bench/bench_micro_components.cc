// Microbenchmarks (google-benchmark) for the per-step costs behind the
// paper's Table 1 and for the core ML components: one simulated stress
// test, a DDPG training step, a GP refit + EI sweep, a PCA fit, a Random
// Forest fit (serial and pooled), and the lock-table replay. Each explains
// one layer's share of a tuning run; bench/e2e times the run itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "cdb/knob_catalog.h"
#include "cdb/lock_manager.h"
#include "cdb/simulated_engine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "ml/ddpg.h"
#include "ml/gaussian_process.h"
#include "ml/pca.h"
#include "ml/random_forest.h"
#include "workload/workloads.h"

namespace hunter {
namespace {

void BM_EngineStressTest(benchmark::State& state) {
  const cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  cdb::SimulatedEngine engine(&catalog, cdb::MySqlEvaluationInstance(),
                              cdb::MySqlEngineTuning());
  const cdb::Configuration config = catalog.DefaultConfiguration();
  const cdb::WorkloadProfile workload = workload::Tpcc();
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(config, workload, true, &rng));
  }
}
BENCHMARK(BM_EngineStressTest);

void BM_DdpgTrainStep(benchmark::State& state) {
  common::Rng rng(2);
  ml::DdpgOptions options;
  options.state_dim = 13;
  options.action_dim = 20;
  ml::Ddpg agent(options, &rng);
  for (int i = 0; i < 256; ++i) {
    ml::Transition t;
    t.state.assign(13, rng.Uniform());
    t.action.assign(20, rng.Uniform());
    t.reward = rng.Uniform();
    agent.AddTransition(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStep());
  }
}
BENCHMARK(BM_DdpgTrainStep);

void BM_DdpgAct(benchmark::State& state) {
  common::Rng rng(3);
  ml::DdpgOptions options;
  options.state_dim = 13;
  options.action_dim = 20;
  ml::Ddpg agent(options, &rng);
  const std::vector<double> s(13, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Act(s));
  }
}
BENCHMARK(BM_DdpgAct);

void BM_GpFitAndEi(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  common::Rng rng(4);
  linalg::Matrix x(n, 65);
  std::vector<double> y(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 65; ++c) x.At(r, c) = rng.Uniform();
    y[r] = rng.Uniform();
  }
  // One OtterTune proposal: 200 candidates scored in one batch.
  linalg::Matrix candidates(200, 65);
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < 65; ++c) candidates.At(r, c) = rng.Uniform();
  }
  std::vector<double> scores;
  for (auto _ : state) {
    ml::GaussianProcess gp;
    gp.Fit(x, y);
    gp.ExpectedImprovementBatch(candidates, 0.5, &scores);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GpFitAndEi)->Arg(60)->Arg(120);

void BM_PcaFit63Metrics(benchmark::State& state) {
  common::Rng rng(5);
  linalg::Matrix data(140, 63);
  for (size_t r = 0; r < 140; ++r) {
    for (size_t c = 0; c < 63; ++c) data.At(r, c) = rng.Gaussian();
  }
  for (auto _ : state) {
    ml::Pca pca;
    pca.Fit(data);
    benchmark::DoNotOptimize(pca.ComponentsForVariance(0.9));
  }
}
BENCHMARK(BM_PcaFit63Metrics);

// pooled:0 fits serially. pooled:1 fits the way a search-space refresh
// does (SearchSpaceOptimizer::Optimize): on a pool of
// min(hardware_concurrency(), num_trees) workers, made for each fit. Both
// are timed by the wall clock, since the workers' CPU time is not the
// calling thread's.
void BM_RandomForest200Trees(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  common::Rng rng(6);
  linalg::Matrix x(140, 65);
  std::vector<double> y(140);
  for (size_t r = 0; r < 140; ++r) {
    for (size_t c = 0; c < 65; ++c) x.At(r, c) = rng.Uniform();
    y[r] = rng.Uniform();
  }
  const ml::RandomForestOptions options;
  const unsigned cores = std::thread::hardware_concurrency();
  const size_t threads =
      pooled ? std::min<size_t>(cores == 0 ? 1 : cores, options.num_trees)
             : 1;
  for (auto _ : state) {
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);
    ml::RandomForest forest;
    common::Rng fit_rng(7);
    forest.Fit(x, y, options, &fit_rng, pool.get());
    benchmark::DoNotOptimize(forest.RankFeatures());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_RandomForest200Trees)
    ->ArgName("pooled")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

void BM_LockReplay(benchmark::State& state) {
  common::Rng rng(8);
  cdb::LockSimConfig config;
  config.num_txns = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdb::LockManager::Simulate(config, &rng));
  }
}
BENCHMARK(BM_LockReplay);

}  // namespace
}  // namespace hunter

BENCHMARK_MAIN();
