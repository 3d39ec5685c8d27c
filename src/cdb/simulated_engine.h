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
//
// An engine holds only its catalog pointer, instance, tuning and the
// per-knob constants derived from them. The run scratch (access-stream
// buffers, buffer pool, page sampler) is one thread_local per thread in
// simulated_engine.cc, and the lock replay keeps its own (lock_manager.h):
// Run is const and reentrant, copying an engine copies no buffers, and
// scratch memory grows with the threads that run engines, not with the
// number of engines (DESIGN.md §13).

#ifndef HUNTER_CDB_SIMULATED_ENGINE_H_
#define HUNTER_CDB_SIMULATED_ENGINE_H_

#include <array>
#include <vector>

#include "cdb/instance_type.h"
#include "cdb/knob.h"
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
  // Safe to call concurrently, on one engine or many, from different
  // threads: each draws on its own thread's scratch.
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

  const KnobCatalog* catalog_;  // not owned
  InstanceType instance_;
  EngineTuning tuning_;
  std::vector<int> role_index_;  // role -> knob index (-1 if absent)
  std::vector<GenericKnobEffect> generic_knobs_;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_SIMULATED_ENGINE_H_
