// Microbenchmarks (google-benchmark) for the per-step costs behind the
// paper's Table 1 and for the core ML components: one simulated stress
// test (one clone, and a 20-clone fleet), one Zipf page draw, a DDPG
// training step, a GP fit (fresh and on a slid window), an EI sweep and the
// GP's Cholesky factorization, a PCA fit, a Random Forest fit (serial and
// pooled), and the lock-table replay. Each explains one layer's
// share of a tuning run; bench/e2e times the run itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cdb/cdb_instance.h"
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

// One stress test per iteration, the way the GA sample factory drives its
// fleet: `clones` instances cloned from one user instance run round robin,
// each deploying the next of 64 full-range random configurations
// (Sysbench-WO, the factory-wo-faults workload). Configurations that fail
// to boot stay in the mix, as they do in the factory.
void BM_EngineStressTest(benchmark::State& state) {
  const size_t clones = static_cast<size_t>(state.range(0));
  const cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  cdb::CdbInstance user(&catalog, cdb::MySqlEvaluationInstance(),
                        cdb::MySqlEngineTuning(), 1);
  std::vector<std::unique_ptr<cdb::CdbInstance>> fleet;
  for (size_t i = 0; i < clones; ++i) fleet.push_back(user.Clone());
  common::Rng config_rng(9);
  std::vector<cdb::Configuration> configs;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> normalized(catalog.size());
    for (double& v : normalized) v = config_rng.Uniform();
    configs.push_back(catalog.DenormalizeConfiguration(normalized));
  }
  const cdb::WorkloadProfile workload = workload::SysbenchWriteOnly();
  size_t next = 0;
  for (auto _ : state) {
    cdb::CdbInstance& clone = *fleet[next % clones];
    clone.DeployConfiguration(configs[next % configs.size()]);
    benchmark::DoNotOptimize(clone.StressTest(workload));
    ++next;
  }
}
BENCHMARK(BM_EngineStressTest)->ArgName("clones")->Arg(1)->Arg(20);

// One page draw: n = 8192 takes the threshold table, n = 2^26 the pow
// formula (common/rng.h).
void BM_ZipfSample(benchmark::State& state) {
  const common::ZipfTable zipf(static_cast<uint64_t>(state.range(0)), 0.85);
  common::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->ArgName("n")->Arg(8192)->Arg(int64_t{1} << 26);

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

// A training pool of `rows` observations of the 65-knob MySQL catalog,
// uniform in [0, 1] like the BO tuners' normalized configurations.
void RandomTrainingPool(size_t rows, uint64_t seed, linalg::Matrix* x,
                        std::vector<double>* y) {
  common::Rng rng(seed);
  *x = linalg::Matrix(rows, 65);
  y->resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 65; ++c) x->At(r, c) = rng.Uniform();
    (*y)[r] = rng.Uniform();
  }
}

// One OtterTune refit at the full window, n = 120, d = 65. `window:fresh`
// is a first fit (a new GP each time, as for a run's first fit);
// `window:slid` refits one GP on a window that slides by one observation
// per iteration, as Observe does.
void BM_GpFit(benchmark::State& state, bool slid) {
  const size_t n = 120;
  const size_t slides = slid ? 1000 : 0;
  linalg::Matrix pool;
  std::vector<double> pool_y;
  RandomTrainingPool(n + slides, 4, &pool, &pool_y);
  linalg::Matrix x(n, 65);
  std::vector<double> y(n);
  ml::GaussianProcess slid_gp;
  size_t step = 0;
  for (auto _ : state) {
    const size_t start = slides == 0 ? 0 : step++ % slides;
    std::copy_n(pool.Data() + start * 65, n * 65, x.Data());
    std::copy_n(pool_y.begin() + static_cast<long>(start), n, y.begin());
    if (slid) {
      benchmark::DoNotOptimize(slid_gp.Fit(x, y));
    } else {
      ml::GaussianProcess gp;
      benchmark::DoNotOptimize(gp.Fit(x, y));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_GpFit, window:fresh, false);
BENCHMARK_CAPTURE(BM_GpFit, window:slid, true);

// One OtterTune proposal: 200 candidates scored in one batch against a GP
// over a full window (n = 120, d = 65).
void BM_GpEiBatch(benchmark::State& state) {
  linalg::Matrix x;
  std::vector<double> y;
  RandomTrainingPool(120, 4, &x, &y);
  ml::GaussianProcess gp;
  gp.Fit(x, y);
  linalg::Matrix candidates;
  std::vector<double> unused;
  RandomTrainingPool(200, 5, &candidates, &unused);
  std::vector<double> scores;
  for (auto _ : state) {
    gp.ExpectedImprovementBatch(candidates, 0.5, &scores);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GpEiBatch);

// The GP's factorization alone: a squared-exponential kernel over n random
// points of the 65-knob catalog plus the GP's noise on the diagonal.
void BM_Cholesky(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  linalg::Matrix x;
  std::vector<double> unused;
  RandomTrainingPool(n, 6, &x, &unused);
  linalg::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sq = 0.0;
      for (size_t c = 0; c < 65; ++c) {
        const double diff = x.At(i, c) - x.At(j, c);
        sq += diff * diff;
      }
      k.At(i, j) = std::exp(-0.5 * sq / (0.9 * 0.9)) + (i == j ? 5e-3 : 0.0);
    }
  }
  linalg::Matrix lower;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Cholesky(k, &lower));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Cholesky)->Arg(60)->Arg(120);

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
// calling thread's. rows:140 is the first refresh's pool, where per-node
// overhead dominates; rows:2540 is the size of tpcc-20clone's last one.
void BM_RandomForest200Trees(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  const auto rows = static_cast<size_t>(state.range(1));
  common::Rng rng(6);
  linalg::Matrix x(rows, 65);
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
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
    ->ArgNames({"pooled", "rows"})
    ->ArgsProduct({{0, 1}, {140, 2540}})
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
