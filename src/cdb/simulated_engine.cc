#include "cdb/simulated_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cdb/buffer_pool.h"
#include "cdb/lock_manager.h"
#include "cdb/wal.h"

namespace hunter::cdb {

namespace {

// Per-connection server memory, used by the boot check (MB).
constexpr double kConnectionMemoryMb = 1.5;
// Boot fails when configured memory exceeds this fraction of RAM.
constexpr double kRamBudgetFraction = 0.95;
// Page accesses simulated per stress test.
constexpr int kWarmupAccesses = 2000;
constexpr int kMeasuredAccesses = 3000;
// Maximum page-space resolution of the scaled-down buffer pool simulation.
constexpr double kMaxDataPages = 8192.0;

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

double UnitHash(uint64_t h) {
  // Deterministic uniform in [0,1) from a hash.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// One thread's run scratch: the precomputed page-access stream (pages and
// write flags in the original interleaved draw order), the buffer pool the
// stream replays through, and the page sampler. Every Run re-arms all of it
// (Reset, Rebind, overwrite), so a run's result never depends on which
// engine ran on this thread before; the slabs are bounded by the page space
// (kMaxDataPages) and only grow, which keeps the steady state
// allocation-free. One per thread rather than one per engine: a serial
// fleet of 20 engines each holding 150–310 KB of scratch spent its runs in
// cache misses (DESIGN.md §13).
struct RunScratch {
  std::vector<uint64_t> access_pages;
  std::vector<uint8_t> access_is_write;
  BufferPool pool{1, 1};
  common::ZipfTable page_zipf;
};

RunScratch& ThreadRunScratch() {
  thread_local RunScratch scratch;
  return scratch;
}

// Replays the precomputed access stream through the pool: warmup accesses,
// counter reset, then the measured window with periodic background
// flushing. Factored out of Run so the hottest loop in the engine is a
// single annotated function over flat arrays.
// hunterlint: hot
void ReplayAccessStream(RunScratch* scratch, int warmup, double io_capacity) {
  BufferPool& pool = scratch->pool;
  const uint64_t* pages = scratch->access_pages.data();
  const uint8_t* is_write = scratch->access_is_write.data();
  for (int i = 0; i < warmup; ++i) {
    const size_t a = static_cast<size_t>(i);
    pool.Access(pages[a], is_write[a] != 0);
  }
  pool.ResetCounters();
  // Background page cleaning proportional to the io_capacity budget; the
  // per-flush budget is loop-invariant, so the division is hoisted.
  const uint64_t flush_budget = static_cast<uint64_t>(io_capacity / 256.0) + 1;
  for (int i = 0; i < kMeasuredAccesses; ++i) {
    const size_t a = static_cast<size_t>(warmup + i);
    pool.Access(pages[a], is_write[a] != 0);
    if ((i & 255) == 0) pool.FlushDirty(flush_budget);
  }
}

}  // namespace

PerfResult BootFailureResult() {
  PerfResult result;
  result.boot_failed = true;
  result.throughput_tps = -1000.0;  // the paper's sentinel
  result.latency_p95_ms = std::numeric_limits<double>::infinity();
  result.latency_p99_ms = std::numeric_limits<double>::infinity();
  result.metrics.assign(kNumMetrics, 0.0);
  return result;
}

EngineTuning MySqlEngineTuning() { return EngineTuning{}; }

EngineTuning PostgresEngineTuning() {
  EngineTuning tuning;
  tuning.cpu_scale = 0.88;     // leaner executor per row in our calibration
  tuning.latch_sigma = 0.0075;
  return tuning;
}

SimulatedEngine::SimulatedEngine(const KnobCatalog* catalog,
                                 InstanceType instance, EngineTuning tuning)
    : catalog_(catalog), instance_(instance), tuning_(tuning) {
  constexpr size_t kNumRoles = static_cast<size_t>(KnobRole::kGeneric) + 1;
  role_index_.assign(kNumRoles, -1);
  for (size_t i = 0; i < catalog_->size(); ++i) {
    const KnobDef& def = catalog_->knob(i);
    if (def.role == KnobRole::kGeneric) {
      const uint64_t h = HashName(def.name);
      generic_knobs_.push_back({i, 0.0008 + 0.0045 * UnitHash(h),
                                0.15 + 0.7 * UnitHash(h ^ 0x5bd1e995u)});
    } else if (role_index_[static_cast<size_t>(def.role)] < 0) {
      role_index_[static_cast<size_t>(def.role)] = static_cast<int>(i);
    }
  }
}

double SimulatedEngine::KnobValue(const Configuration& config, KnobRole role,
                                  double fallback) const {
  const int index = role_index_[static_cast<size_t>(role)];
  if (index < 0) return fallback;
  return config[static_cast<size_t>(index)];
}

bool SimulatedEngine::ValidateBoot(const Configuration& config,
                                   std::string* reason) const {
  // A NaN or infinite knob would pass the memory comparison below (NaN
  // compares false) and then reach Run's integer casts.
  for (size_t i = 0; i < catalog_->size(); ++i) {
    if (!std::isfinite(config[i])) {
      if (reason != nullptr) {
        *reason = "knob " + catalog_->knob(i).name + " has non-finite value " +
                  std::to_string(config[i]);
      }
      return false;
    }
  }
  const double ram_mb = instance_.ram_gb * 1024.0;
  const double bp_mb = KnobValue(config, KnobRole::kBufferPoolSize, 128.0);
  const double max_conn = KnobValue(config, KnobRole::kMaxConnections, 151.0);
  const double log_buffer_mb = KnobValue(config, KnobRole::kLogBufferSize, 16.0);
  const double committed =
      bp_mb + max_conn * kConnectionMemoryMb + log_buffer_mb;
  if (committed > kRamBudgetFraction * ram_mb) {
    if (reason != nullptr) {
      *reason = "configured memory " + std::to_string(committed) +
                " MB exceeds budget of instance RAM " +
                std::to_string(ram_mb) + " MB";
    }
    return false;
  }
  return true;
}

// hunterlint: hot
PerfResult SimulatedEngine::Run(const Configuration& config,
                                const WorkloadProfile& workload,
                                bool warm_start, common::Rng* rng) const {
  if (!ValidateBoot(config, nullptr)) return BootFailureResult();

  // ---- Knob extraction.
  const double bp_mb = KnobValue(config, KnobRole::kBufferPoolSize, 128.0);
  const int flush_policy =
      static_cast<int>(KnobValue(config, KnobRole::kFlushPolicy, 1.0));
  const double binlog_sync = KnobValue(config, KnobRole::kBinlogSync, 1.0);
  const double log_file_mb = KnobValue(config, KnobRole::kLogFileSize, 48.0);
  const double log_buffer_mb = KnobValue(config, KnobRole::kLogBufferSize, 16.0);
  const double io_capacity = KnobValue(config, KnobRole::kIoCapacity, 200.0);
  const double io_capacity_max =
      std::max(io_capacity, KnobValue(config, KnobRole::kIoCapacityMax, 2000.0));
  const double thread_concurrency =
      KnobValue(config, KnobRole::kThreadConcurrency, 0.0);
  const double max_conn = KnobValue(config, KnobRole::kMaxConnections, 151.0);
  const double bp_instances =
      std::max(1.0, KnobValue(config, KnobRole::kBufferPoolInstances, 1.0));
  const double read_io_threads =
      std::max(1.0, KnobValue(config, KnobRole::kReadIoThreads, 4.0));
  const double thread_cache = KnobValue(config, KnobRole::kThreadCache, 9.0);
  const int flush_method =
      static_cast<int>(KnobValue(config, KnobRole::kFlushMethod, 0.0));
  const bool adaptive_hash =
      KnobValue(config, KnobRole::kAdaptiveHash, 1.0) >= 0.5;
  const double change_buffering =
      KnobValue(config, KnobRole::kChangeBuffering, 2.0);
  const double max_dirty_pct = KnobValue(config, KnobRole::kMaxDirtyPct, 75.0);
  const double lru_scan_depth =
      KnobValue(config, KnobRole::kLruScanDepth, 1024.0);
  const double lock_wait_timeout_s =
      KnobValue(config, KnobRole::kLockWaitTimeout, 50.0);
  const bool deadlock_detect =
      KnobValue(config, KnobRole::kDeadlockDetect, 1.0) >= 0.5;
  const double table_cache = KnobValue(config, KnobRole::kTableCache, 2000.0);
  const bool doublewrite = KnobValue(config, KnobRole::kDoubleWrite, 1.0) >= 0.5;

  // ---- Effective concurrency.
  double n_clients =
      std::min<double>(workload.client_threads, std::max(1.0, max_conn));
  if (workload.max_replay_parallelism > 0.0) {
    n_clients = std::min(n_clients, workload.max_replay_parallelism);
  }
  const double n_exec = thread_concurrency > 0.5
                            ? std::min(n_clients, thread_concurrency)
                            : n_clients;

  // ---- Buffer pool simulation (real LRU over a scaled page space).
  const double data_mb = workload.data_size_gb * 1024.0;
  const double page_mb = std::max(1.0, std::ceil(data_mb / kMaxDataPages));
  const uint64_t data_pages =
      std::max<uint64_t>(16, static_cast<uint64_t>(data_mb / page_mb));
  const uint64_t bp_pages =
      std::max<uint64_t>(1, static_cast<uint64_t>(bp_mb / page_mb));
  RunScratch& scratch = ThreadRunScratch();
  BufferPool& pool = scratch.pool;
  pool.Reset(bp_pages, data_pages);
  if (warm_start) {
    // The CDB warm-up function restores the hottest pages (low Zipf ranks
    // map to low page ids in this simulation).
    pool.Prewarm(std::min<uint64_t>(bp_pages, data_pages));
  }
  const double write_access_fraction = 1.0 - workload.read_fraction;
  const int warmup = warm_start ? kWarmupAccesses / 4 : kWarmupAccesses;
  // Draw the whole access stream up front (same interleaved draw order the
  // former per-access loops used, so the RNG stream is unchanged), then
  // replay it through the pool. The page sampler's constants and threshold
  // table stay bound across runs of one workload; the lock replay below
  // draws rows from a sampler of its own.
  const size_t total_accesses =
      static_cast<size_t>(warmup) + static_cast<size_t>(kMeasuredAccesses);
  scratch.access_pages.resize(total_accesses);
  scratch.access_is_write.resize(total_accesses);
  scratch.page_zipf.Rebind(data_pages, workload.zipf_theta);
  for (size_t i = 0; i < total_accesses; ++i) {
    scratch.access_pages[i] = scratch.page_zipf.Sample(rng);
    scratch.access_is_write[i] = rng->Bernoulli(write_access_fraction) ? 1 : 0;
  }
  ReplayAccessStream(&scratch, warmup, io_capacity);
  const double miss_ratio = 1.0 - pool.HitRatio();
  const double dirty_fraction = pool.DirtyFraction();

  // ---- Per-transaction demand components.
  const double read_ops =
      workload.ops_per_txn * workload.read_fraction;
  const double write_ops = workload.ops_per_txn - read_ops;
  const double point_reads = read_ops * (1.0 - workload.scan_fraction);
  const double scan_reads = read_ops * workload.scan_fraction;
  // A scan op touches ~16 pages with sequential readahead halving misses.
  const double page_reads_per_txn = point_reads + scan_reads * 16.0 * 0.5;
  const double misses_per_txn = page_reads_per_txn * miss_ratio;

  const double prefetch =
      std::clamp(std::sqrt(read_io_threads / 4.0), 0.7, 2.2);
  const double io_wait_ms = misses_per_txn * tuning_.io_read_ms / prefetch;

  // Unique dirty pages produced per transaction (row-to-page clustering),
  // reduced by change buffering of secondary-index writes.
  double dirty_pages_per_txn = workload.write_rows_per_txn * 0.4;
  if (change_buffering >= 1.5) {
    dirty_pages_per_txn *= 0.75;
  } else if (change_buffering >= 0.5) {
    dirty_pages_per_txn *= 0.88;
  }

  // CPU demand per transaction.
  double cpu_ms = workload.ops_per_txn * workload.cpu_ms_per_op *
                  tuning_.cpu_scale;
  if (adaptive_hash) cpu_ms *= 1.0 - 0.08 * workload.read_fraction;
  if (change_buffering >= 1.5) {
    // Merging buffered changes on reads costs a little read CPU.
    cpu_ms *= 1.0 + 0.02 * workload.read_fraction;
  }
  // Each background IO thread has bookkeeping cost; oversizing hurts.
  const double write_io_threads =
      std::max(1.0, KnobValue(config, KnobRole::kWriteIoThreads, 4.0));
  cpu_ms *= 1.0 + 0.0025 * (read_io_threads + write_io_threads);
  // Memory pressure: committing most of RAM to caches starves the OS and
  // connection arenas, so the buffer pool has an interior optimum coupled
  // with max_connections (both count against the same budget).
  {
    const double ram_mb = instance_.ram_gb * 1024.0;
    const double committed_fraction =
        (bp_mb + max_conn * kConnectionMemoryMb + log_buffer_mb) / ram_mb;
    if (committed_fraction > 0.80) {
      cpu_ms *= 1.0 + 3.0 * (committed_fraction - 0.80);
    }
  }
  // Generic minor knobs: each contributes a small smooth penalty with a
  // workload-dependent optimum position (see DESIGN.md §6).
  double generic_penalty = 0.0;
  for (const GenericKnobEffect& g : generic_knobs_) {
    const double opt = g.opt_base + 0.1 * (workload.read_fraction - 0.5);
    const double x = catalog_->Normalize(g.knob_index, config[g.knob_index]);
    const double d = x - std::clamp(opt, 0.05, 0.95);
    generic_penalty += g.weight * d * d;
  }
  cpu_ms *= 1.0 + generic_penalty;
  cpu_ms += misses_per_txn * 0.025;  // page fixing/IO completion CPU
  // Table-cache misses cost lookups below ~1500 cached tables.
  cpu_ms += 0.05 * std::max(0.0, 1.0 - table_cache / 1500.0);
  // Thread churn when the thread cache is undersized for the population.
  const double churn_prob =
      0.02 * std::max(0.0, 1.0 - thread_cache / (0.3 * n_clients + 1.0));
  cpu_ms += churn_prob * 2.0;

  // ---- Lock contention (miniature lock-table replay).
  const double base_service_ms = cpu_ms + io_wait_ms;
  LockSimConfig lock_config;
  lock_config.num_txns = 400;
  lock_config.concurrency = n_exec;
  lock_config.writes_per_txn = workload.hot_writes_per_txn;
  lock_config.hot_rows = workload.hot_rows;
  lock_config.zipf_theta = workload.lock_zipf_theta;
  lock_config.hold_time_ms = std::max(0.5, base_service_ms);
  lock_config.lock_wait_timeout_ms = lock_wait_timeout_s * 1000.0;
  lock_config.deadlock_detect = deadlock_detect;
  const LockSimResult locks = LockManager::Simulate(lock_config, rng);
  if (deadlock_detect) {
    // Active detection burns CPU proportional to the conflict rate.
    cpu_ms += 0.3 * locks.conflict_rate;
  }

  // ---- USL-style latch contention on the CPU path.
  const double bp_partition_factor =
      std::max(0.22, (1.0 + 4.0 / bp_instances) / 5.0);
  double sigma = tuning_.latch_sigma * bp_partition_factor;
  if (adaptive_hash) sigma += 0.0008 * (1.0 - workload.read_fraction);
  const double latch_eff =
      1.0 + sigma * (n_exec - 1.0) +
      tuning_.latch_kappa * n_exec * (n_exec - 1.0);

  // ---- Fixed point over throughput (group commit and flush pressure
  // depend on the rate they help determine).
  double throughput = n_clients / std::max(0.1, base_service_ms) * 1000.0;
  // The WAL config/workload (apart from the commit rate the fixed point is
  // solving for) never changes across iterations, so precompute the
  // rate-independent terms once and re-estimate only the rate-dependent
  // ones inside the loop — the costs are bit-identical to the full
  // re-estimation the loop used to do.
  WalConfig wal_config;
  wal_config.flush_policy = flush_policy;
  wal_config.binlog_sync_every = static_cast<int>(binlog_sync);
  wal_config.log_file_mb = log_file_mb;
  wal_config.log_buffer_mb = log_buffer_mb;
  wal_config.fsync_ms = instance_.fsync_latency_ms;
  wal_config.flush_method = flush_method;
  wal_config.doublewrite = doublewrite;
  wal_config.io_capacity = io_capacity;
  WalWorkload wal_workload;
  wal_workload.redo_kb_per_txn = workload.redo_kb_per_txn;
  wal_workload.concurrent_committers = n_exec;
  const WalInvariants wal_invariants =
      WalModel::Precompute(wal_config, wal_workload);
  // Read-mostly transactions generate (almost) no redo, so the commit
  // path's sync costs scale away with the redo volume.
  const double write_activity =
      std::clamp(workload.redo_kb_per_txn / 0.5, 0.0, 1.0);
  // Rate-independent pieces of the fixed point, hoisted out of the loop.
  // Every cached value is the identical subexpression the loop body used
  // to evaluate per iteration (the WAL write amplification is itself
  // rate-independent — EstimateAtRate always returns
  // inv.base_write_amplification — so everything derived from it is too),
  // which keeps the iterates bit-identical to the unhoisted loop.
  //
  // Dirty-page pressure: surplus production must be flushed by the
  // foreground threads (write stalls).
  const bool bursting = dirty_fraction * 100.0 > max_dirty_pct;
  const double cleaner_eff = std::clamp(lru_scan_depth / 1024.0, 0.5, 2.0);
  const double flush_capacity =
      (bursting ? io_capacity_max : io_capacity) * cleaner_eff;
  const double x_cpu = instance_.cpu_cores * 1000.0 / cpu_ms / latch_eff;
  const double wal_write_amp = wal_invariants.base_write_amplification;
  const double device_ops_per_txn =
      misses_per_txn + dirty_pages_per_txn * wal_write_amp * 0.5;
  // Sustained dirtying cannot outrun total cleaning capacity (background
  // cleaners plus the foreground share of the write device).
  const double fg_flush_capacity =
      instance_.disk_write_iops * 0.3 / wal_write_amp;
  const double x_dirty =
      dirty_pages_per_txn > 0.01
          ? (flush_capacity + fg_flush_capacity) / dirty_pages_per_txn
          : std::numeric_limits<double>::infinity();
  // Letting the pool run very dirty defers work into checkpoint storms.
  const double dirty_storm_ms = 0.02 * (max_dirty_pct - 90.0);
  // Deep LRU scans burn cleaner CPU whether or not pages need flushing.
  const double lru_scan_cpu_ms = 0.00002 * lru_scan_depth;
  WalCost wal;
  double stall_ms = 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    wal = WalModel::EstimateAtRate(wal_invariants, throughput);
    wal.commit_cost_ms *= write_activity;
    wal.log_wait_ms *= write_activity;

    const double dirty_rate = throughput * dirty_pages_per_txn;
    const double surplus = std::max(0.0, dirty_rate - flush_capacity);
    stall_ms = surplus / std::max(1.0, throughput) * tuning_.fg_flush_ms *
               wal_write_amp;
    if (bursting) stall_ms += 0.05;  // burst flushing competes with reads
    if (max_dirty_pct > 90.0) stall_ms += dirty_storm_ms;
    stall_ms += lru_scan_cpu_ms;

    const double service_ms = cpu_ms + io_wait_ms + wal.commit_cost_ms +
                              wal.log_wait_ms + wal.checkpoint_stall_ms +
                              locks.mean_wait_ms + stall_ms;
    // Only the threads admitted into the engine make progress; excess
    // clients queue outside (their wait shows up in latency, not rate).
    const double x_threads = n_exec / service_ms * 1000.0;
    // Over-provisioned background flushing steals read bandwidth: the
    // cleaner scans and rewrites pages it did not need to, so io_capacity
    // has a ridge (too low stalls writers, too high starves readers).
    const double excess_flush =
        std::max(0.0, flush_capacity - 2.0 * std::max(10.0, dirty_rate));
    const double read_iops_available =
        std::max(instance_.disk_read_iops * 0.2,
                 instance_.disk_read_iops - 0.5 * excess_flush);
    const double x_io =
        read_iops_available / std::max(0.01, device_ops_per_txn);
    const double x_log = 1000.0 / std::max(0.004, wal.commit_cost_ms);
    const double x_new = std::min(
        std::min(std::min(x_threads, x_cpu), std::min(x_io, x_log)), x_dirty);
    const double next = 0.5 * throughput + 0.5 * x_new;
    // Exit as soon as the iterate is *bit-exactly* stationary: if next ==
    // throughput, every further iteration recomputes the identical values,
    // so stopping cannot change the result. The historical relative
    // tolerance is kept verbatim alongside it — a stationary positive
    // iterate always satisfies it, so the disjunction changes no exit
    // decision, it only names the exact case explicitly.
    const bool converged = next == throughput ||
                           std::abs(next - throughput) < 0.002 * throughput;
    throughput = next;
    if (converged) break;
  }

  // ---- Latency from the closed-loop population.
  const double latency_avg_ms = n_clients / throughput * 1000.0;
  const double variability = 1.05 + 0.6 * locks.conflict_rate +
                             std::min(1.0, stall_ms / 2.0) +
                             std::min(0.5, wal.checkpoint_stall_ms * 10.0);
  double latency_p95 = latency_avg_ms * variability;
  double latency_p99 = latency_p95 * 1.35;

  // ---- Run-to-run noise.
  const double noise = 1.0 + rng->Gaussian(0.0, tuning_.noise_sigma);
  throughput *= std::max(0.5, noise);
  latency_p95 *= std::max(0.5, 2.0 - noise);
  latency_p99 *= std::max(0.5, 2.0 - noise);

  // ---- Latents and metrics.
  PerfResult result;
  result.throughput_tps = throughput;
  result.latency_p95_ms = latency_p95;
  result.latency_p99_ms = latency_p99;
  result.latents[kLatHitRatio] = 1.0 - miss_ratio;
  result.latents[kLatMissRate] = misses_per_txn * throughput;
  result.latents[kLatDirtyFraction] = dirty_fraction;
  result.latents[kLatFlushRate] =
      std::min(throughput * dirty_pages_per_txn,
               io_capacity_max * std::clamp(lru_scan_depth / 1024.0, 0.5, 2.0));
  result.latents[kLatLogWait] = wal.log_wait_ms + wal.commit_cost_ms;
  result.latents[kLatLockWait] = locks.mean_wait_ms;
  result.latents[kLatDeadlockRate] = locks.deadlock_rate * 1000.0;
  result.latents[kLatThreadsRunning] =
      std::min(n_exec, throughput * (cpu_ms + io_wait_ms) / 1000.0 + 1.0);
  result.latents[kLatCpuUtil] = std::clamp(
      throughput * cpu_ms / 1000.0 / instance_.cpu_cores, 0.0, 1.0);
  result.latents[kLatIoUtil] = std::clamp(
      throughput * (misses_per_txn + dirty_pages_per_txn) /
          instance_.disk_read_iops,
      0.0, 1.0);
  result.latents[kLatCommitRate] = throughput;
  result.latents[kLatReadRowRate] = throughput * read_ops;
  result.latents[kLatWriteRowRate] = throughput * write_ops;
  result.latents[kLatCheckpointRate] = wal.checkpoints_per_sec;
  result.latents[kLatTmpUsage] = throughput * scan_reads * 0.3;
  result.latents[kLatConnChurn] = churn_prob * throughput;
  result.metrics = LatentsToMetrics(result.latents, rng);
  return result;
}

}  // namespace hunter::cdb
