// Golden equivalence gates for the engine-evaluation fast path.
//
// The production engine (page-indexed LRU pool and Zipf samplers in one run
// scratch per thread, page draws from a threshold table, hoisted +
// bit-exact-early-exit fixed point) must be observably indistinguishable —
// bit for bit, tolerance 0.0 —
// from the seed implementation it replaced. hunter::seedref (in
// seed_engine_ref.h) carries the seed replicas; every test here drives both
// sides from identically seeded Rngs and asserts exact equality on outputs
// AND on the post-run RNG state (so the number and order of draws is pinned,
// not just the arithmetic).

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/instance_type.h"
#include "cdb/knob_catalog.h"
#include "cdb/simulated_engine.h"
#include "cdb/workload_profile.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tests/cdb/seed_engine_ref.h"
#include "workload/workloads.h"

namespace hunter::cdb {
namespace {

// Asserts bit-level equality of two PerfResults: scalars, the full latent
// vector, and all 63 metrics. EXPECT_EQ on doubles is exact comparison, the
// contract the fast path is gated on (engine outputs never contain NaNs;
// boot failures carry matching infinities).
void ExpectBitIdentical(const PerfResult& seed, const PerfResult& fast,
                        const std::string& context) {
  EXPECT_EQ(seed.boot_failed, fast.boot_failed) << context;
  EXPECT_EQ(seed.throughput_tps, fast.throughput_tps) << context;
  EXPECT_EQ(seed.latency_p95_ms, fast.latency_p95_ms) << context;
  EXPECT_EQ(seed.latency_p99_ms, fast.latency_p99_ms) << context;
  ASSERT_EQ(seed.latents.size(), fast.latents.size()) << context;
  for (size_t i = 0; i < seed.latents.size(); ++i) {
    EXPECT_EQ(seed.latents[i], fast.latents[i]) << context << " latent " << i;
  }
  ASSERT_EQ(seed.metrics.size(), fast.metrics.size()) << context;
  for (size_t i = 0; i < seed.metrics.size(); ++i) {
    EXPECT_EQ(seed.metrics[i], fast.metrics[i]) << context << " metric " << i;
  }
}

struct EngineFixture {
  KnobCatalog catalog;
  SimulatedEngine engine;
  seedref::SeedEngine seed;

  EngineFixture(KnobCatalog cat, const InstanceType& instance,
                const EngineTuning& tuning)
      : catalog(std::move(cat)),
        engine(&catalog, instance, tuning),
        seed(&catalog, instance, tuning) {}
};

// Runs both engines over the same (config, workload, warmth, seed) and
// asserts bit-identity of results and post-run RNG fingerprints.
void CheckRun(EngineFixture* fx, const Configuration& config,
              const WorkloadProfile& workload, bool warm, uint64_t rng_seed,
              const std::string& context) {
  common::Rng seed_rng(rng_seed);
  common::Rng fast_rng(rng_seed);
  const PerfResult want = fx->seed.Run(config, workload, warm, &seed_rng);
  const PerfResult got = fx->engine.Run(config, workload, warm, &fast_rng);
  ExpectBitIdentical(want, got, context);
  EXPECT_EQ(seed_rng.StateFingerprint(), fast_rng.StateFingerprint())
      << context << " (draw count/order diverged)";
}

// Random raw configuration: uniform in normalized space, snapped to each
// knob's domain by DenormalizeConfiguration.
Configuration RandomConfig(const KnobCatalog& catalog, common::Rng* rng) {
  std::vector<double> normalized(catalog.size());
  for (double& v : normalized) v = rng->Uniform();
  return catalog.DenormalizeConfiguration(normalized);
}

TEST(EngineFastPathTest, DefaultsMatchSeedAcrossWorkloadsAndWarmth) {
  EngineFixture mysql(MySqlCatalog(), MySqlEvaluationInstance(),
                      MySqlEngineTuning());
  EngineFixture postgres(PostgresCatalog(), PostgresEvaluationInstance(),
                         PostgresEngineTuning());
  uint64_t seed = 11;
  for (const WorkloadProfile& wl : workload::AllStandardWorkloads()) {
    for (const bool warm : {false, true}) {
      CheckRun(&mysql, mysql.catalog.DefaultConfiguration(), wl, warm, seed,
               "mysql/" + wl.name + (warm ? "/warm" : "/cold"));
      CheckRun(&postgres, postgres.catalog.DefaultConfiguration(), wl, warm,
               seed, "postgres/" + wl.name + (warm ? "/warm" : "/cold"));
      ++seed;
    }
  }
}

TEST(EngineFastPathTest, RandomConfigsMatchSeedBitExact) {
  EngineFixture mysql(MySqlCatalog(), MySqlEvaluationInstance(),
                      MySqlEngineTuning());
  common::Rng config_rng(2026);
  const WorkloadProfile tpcc = workload::Tpcc();
  const WorkloadProfile rw = workload::SysbenchReadWrite();
  for (int i = 0; i < 24; ++i) {
    const Configuration config = RandomConfig(mysql.catalog, &config_rng);
    const WorkloadProfile& wl = (i % 2 == 0) ? tpcc : rw;
    CheckRun(&mysql, config, wl, /*warm=*/i % 3 == 0,
             1000 + static_cast<uint64_t>(i),
             "random config " + std::to_string(i));
  }
}

// Fixed-point corner cases: the stall/burst branches, the checkpoint-storm
// penalty (max_dirty_pct > 90), capped thread concurrency, deadlock
// detection off, and starved io_capacity all steer the iteration the
// early-exit rule must not perturb.
TEST(EngineFastPathTest, FixedPointCornersMatchSeed) {
  EngineFixture fx(MySqlCatalog(), MySqlEvaluationInstance(),
                   MySqlEngineTuning());
  auto set = [&fx](Configuration* config, const char* name, double value) {
    const int index = fx.catalog.IndexOf(name);
    ASSERT_GE(index, 0) << name;
    (*config)[static_cast<size_t>(index)] = value;
  };

  const WorkloadProfile wl = workload::SysbenchWriteOnly();
  Configuration storm = fx.catalog.DefaultConfiguration();
  set(&storm, "innodb_max_dirty_pages_pct", 97.0);
  set(&storm, "innodb_io_capacity", 100.0);
  CheckRun(&fx, storm, wl, false, 7, "dirty storm");

  Configuration starved = fx.catalog.DefaultConfiguration();
  set(&starved, "innodb_io_capacity", 100.0);
  set(&starved, "innodb_io_capacity_max", 120.0);
  set(&starved, "innodb_lru_scan_depth", 256.0);
  CheckRun(&fx, starved, wl, false, 8, "starved flushing");

  Configuration capped = fx.catalog.DefaultConfiguration();
  set(&capped, "innodb_thread_concurrency", 8.0);
  set(&capped, "innodb_deadlock_detect", 0.0);
  set(&capped, "innodb_lock_wait_timeout", 1.0);
  CheckRun(&fx, capped, wl, true, 9, "capped concurrency, no detect");

  Configuration burst = fx.catalog.DefaultConfiguration();
  set(&burst, "innodb_io_capacity_max", 20000.0);
  set(&burst, "innodb_lru_scan_depth", 8192.0);
  CheckRun(&fx, burst, workload::Tpcc(), false, 10, "oversized cleaning");
}

TEST(EngineFastPathTest, BootFailureMatchesSeed) {
  EngineFixture fx(MySqlCatalog(), MySqlEvaluationInstance(),
                   MySqlEngineTuning());
  Configuration config = fx.catalog.DefaultConfiguration();
  const int bp = fx.catalog.IndexOf("innodb_buffer_pool_size");
  ASSERT_GE(bp, 0);
  config[static_cast<size_t>(bp)] = 49152.0;  // ~48 GB on a 32 GB box
  CheckRun(&fx, config, workload::Tpcc(), false, 21, "boot failure");
}

// Runs `engine` once on a thread that has never run an engine — the worker
// of a fresh one-thread pool — so the run builds its thread's scratch (pool
// slabs, samplers, lock table) from nothing.
PerfResult RunOnFreshThread(const SimulatedEngine& engine,
                            const Configuration& config,
                            const WorkloadProfile& workload, bool warm,
                            common::Rng* rng) {
  common::ThreadPool pool(1);
  return pool
      .Submit([&] { return engine.Run(config, workload, warm, rng); })
      .get();
}

// Scratch reuse must be stateless: the N-th Run on a thread (slabs warm,
// Zipf constants and threshold table bound) must equal the same Run on a
// fresh thread given the same RNG state. This is the gate on the "reuse
// one scratch via Reset()/Rebind()" half of the fast path.
TEST(EngineFastPathTest, SlabAndSamplerReuseIsObservablyStateless) {
  const KnobCatalog catalog = MySqlCatalog();
  const Configuration defaults = catalog.DefaultConfiguration();
  const WorkloadProfile tpcc = workload::Tpcc();
  const WorkloadProfile ro = workload::SysbenchReadOnly();

  SimulatedEngine reused(&catalog, MySqlEvaluationInstance(),
                         MySqlEngineTuning());
  common::Rng rng(77);
  // First run warms this thread's slabs and both Zipf tables (Sysbench RO
  // has the finer page granularity, hence the larger pool)...
  (void)reused.Run(defaults, ro, false, &rng);
  const common::Rng rng_checkpoint = rng;  // same state for the fresh side
  // ...second run (different workload: smaller pool capacity, different Zipf
  // parameters) executes entirely on reused slabs.
  const PerfResult via_reuse = reused.Run(defaults, tpcc, true, &rng);

  const SimulatedEngine fresh(&catalog, MySqlEvaluationInstance(),
                              MySqlEngineTuning());
  common::Rng fresh_rng = rng_checkpoint;
  const PerfResult via_fresh =
      RunOnFreshThread(fresh, defaults, tpcc, true, &fresh_rng);
  ExpectBitIdentical(via_fresh, via_reuse, "reused vs fresh thread");
  EXPECT_EQ(rng.StateFingerprint(), fresh_rng.StateFingerprint());
}

// Two engines of different flavours interleave on one thread and so share
// its scratch: different catalogs, instance types, workloads (page spaces
// 8192 and 4592, four page skews, three lock-row streams) and warmth. Each
// run must equal the same run on a fresh thread, whatever the other engine
// left in the scratch.
TEST(EngineFastPathTest, InterleavedEnginesOnOneThreadMatchFreshThreads) {
  const KnobCatalog mysql_catalog = MySqlCatalog();
  const KnobCatalog postgres_catalog = PostgresCatalog();
  const SimulatedEngine mysql(&mysql_catalog, InstanceTypeByName("H"),
                              MySqlEngineTuning());
  const SimulatedEngine postgres(&postgres_catalog,
                                 PostgresEvaluationInstance(),
                                 PostgresEngineTuning());
  const struct {
    const SimulatedEngine* engine;
    WorkloadProfile workload;
    bool warm;
  } steps[] = {
      {&mysql, workload::SysbenchReadOnly(), false},
      {&postgres, workload::Tpcc(), true},
      {&mysql, workload::Production(true), true},
      {&postgres, workload::SysbenchWriteOnly(), false},
      {&mysql, workload::Tpcc(), false},
      {&postgres, workload::Production(false), true},
      {&mysql, workload::SysbenchReadOnly(), true},
  };
  common::Rng config_rng(4242);
  uint64_t seed = 300;
  for (const auto& step : steps) {
    // A random configuration that boots, so every run uses the scratch.
    const KnobCatalog& catalog = step.engine->catalog();
    Configuration config = RandomConfig(catalog, &config_rng);
    while (!step.engine->ValidateBoot(config, nullptr)) {
      config = RandomConfig(catalog, &config_rng);
    }
    const std::string context = catalog.knob(0).name + "/" +
                                step.workload.name +
                                (step.warm ? "/warm" : "/cold");
    common::Rng shared_rng(seed);
    common::Rng fresh_rng(seed);
    ++seed;
    const PerfResult shared =
        step.engine->Run(config, step.workload, step.warm, &shared_rng);
    const PerfResult fresh = RunOnFreshThread(*step.engine, config,
                                              step.workload, step.warm,
                                              &fresh_rng);
    ASSERT_FALSE(shared.boot_failed) << context;
    ExpectBitIdentical(fresh, shared, context);
    EXPECT_EQ(shared_rng.StateFingerprint(), fresh_rng.StateFingerprint())
        << context;
  }
}

}  // namespace
}  // namespace hunter::cdb
