// The simulated cloud DBMS.
//
// This is the substitution for the paper's real MySQL / PostgreSQL cloud
// instances (see DESIGN.md §1). One stress test = one call to Run(): the
// engine streams sampled page accesses through a real LRU buffer pool,
// replays transactions over a miniature lock table, prices the commit path
// with a group-commit WAL model, and resolves throughput via bottleneck
// analysis over four resources (worker threads, CPU with USL-style latch
// contention, the data device, and the serial log device). Latency follows
// from the closed-loop population (p95 with a variability inflation driven
// by stalls and conflicts). 63 metrics are emitted as mixtures of the
// engine's latent quantities.
//
// Every mechanism is knob-driven through KnobRole, so the same engine serves
// the MySQL-style and PostgreSQL-style catalogs.

#ifndef HUNTER_CDB_SIMULATED_ENGINE_H_
#define HUNTER_CDB_SIMULATED_ENGINE_H_

#include <array>
#include <vector>

#include "cdb/buffer_pool.h"
#include "cdb/instance_type.h"
#include "cdb/knob.h"
#include "cdb/lock_manager.h"
#include "cdb/metric_catalog.h"
#include "cdb/workload_profile.h"
#include "common/rng.h"

namespace hunter::cdb {

struct PerfResult {
  bool boot_failed = false;
  double throughput_tps = 0.0;   // committed transactions per second
  double latency_p95_ms = 0.0;   // 95th-percentile transaction latency
  double latency_p99_ms = 0.0;
  std::vector<double> metrics;   // the 63-metric state vector
  std::array<double, kNumLatents> latents{};  // engine internals (diagnostics)
};

// Sentinel performance for configurations that fail to boot (§2.1: the
// Actor records throughput -1000 and latency "infinity").
PerfResult BootFailureResult();

struct EngineTuning {
  // DBMS-flavor constants; PostgreSQL runs slightly leaner per operation in
  // the paper's numbers (77.8k vs 68.9k txn/min on TPC-C).
  double cpu_scale = 1.0;
  double latch_sigma = 0.008;    // USL contention coefficient
  double latch_kappa = 1.2e-6;   // USL coherency coefficient
  double io_read_ms = 0.35;      // network-attached storage read latency
  double fg_flush_ms = 0.35;     // foreground flush penalty per surplus page
  double noise_sigma = 0.006;    // multiplicative run-to-run noise
};

EngineTuning MySqlEngineTuning();
EngineTuning PostgresEngineTuning();

class SimulatedEngine {
 public:
  SimulatedEngine(const KnobCatalog* catalog, InstanceType instance,
                  EngineTuning tuning);

  // Returns true if the configuration can boot on this instance: every knob
  // value is finite and the configured memory fits the RAM budget. A reason
  // string (for logs/tests) is written when provided.
  bool ValidateBoot(const Configuration& config, std::string* reason) const;

  // Runs one stress test of `workload` under `config`. `warm_start` models
  // the CDB warm-up function (buffer pool reloaded after restart, §5).
  PerfResult Run(const Configuration& config, const WorkloadProfile& workload,
                 bool warm_start, common::Rng* rng) const;

  const InstanceType& instance() const { return instance_; }
  void set_instance(const InstanceType& instance) { instance_ = instance; }
  const KnobCatalog& catalog() const { return *catalog_; }

 private:
  // Hash-derived response constants of one generic minor knob, computed
  // once at construction instead of re-hashing the knob name on every Run
  // (65 knobs x FNV over the name x thousands of stress tests per tuning
  // run). `opt_base` is the workload-independent part of the optimum
  // position; Run adds the read-fraction shift.
  struct GenericKnobEffect {
    size_t knob_index = 0;
    double weight = 0.0;
    double opt_base = 0.0;
  };

  double KnobValue(const Configuration& config, KnobRole role,
                   double fallback) const;

  // Replays the precomputed access stream through pool_: warmup accesses,
  // counter reset, then the measured window with periodic background
  // flushing. Factored out of Run so the hottest loop in the engine is a
  // single annotated function over flat arrays.
  void ReplayAccessStream(int warmup, double io_capacity) const;

  const KnobCatalog* catalog_;  // not owned
  InstanceType instance_;
  EngineTuning tuning_;
  std::vector<int> role_index_;  // role -> knob index (-1 if absent)
  std::vector<GenericKnobEffect> generic_knobs_;

  // Scratch for the precomputed page-access stream (pages + write flags in
  // the original interleaved draw order). An engine is driven by one actor
  // at a time, so reusing the buffers across Run calls is safe and keeps
  // the steady state allocation-free.
  mutable std::vector<uint64_t> access_pages_;
  mutable std::vector<uint8_t> access_is_write_;
  // One pool per engine, re-armed via Reset(capacity, page_space) at the
  // top of every Run instead of being reconstructed. Its slabs are bounded
  // by the page space (kMaxDataPages) and survive across evaluations.
  mutable BufferPool pool_{1, 1};
  // Per-purpose Zipf samplers. The page draws (data_pages, zipf_theta) and
  // the lock-row draws (hot_rows, lock_zipf_theta) alternate within every
  // Run; a single shared constants cache (the Rng's) would recompute both
  // zeta sums on every evaluation, so each stream keeps its own warm table.
  mutable common::ZipfTable access_zipf_;
  mutable common::ZipfTable lock_zipf_;
  // Scratch lock table handed to LockManager::Simulate so the row-entry
  // slab survives across evaluations too (reset, never reallocated, in
  // steady state).
  mutable LockManager::Table lock_table_;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_SIMULATED_ENGINE_H_
