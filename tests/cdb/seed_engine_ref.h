// Seed-faithful replicas of the pre-fast-path hot structures, shared by the
// equivalence gtests (tests/cdb/engine_fastpath_test.cc and
// tests/cdb/buffer_pool_test.cc).
//
// Everything in hunter::seedref reproduces the pre-PR implementations
// verbatim: SeedBufferPool is the std::list + std::unordered_map LRU,
// SeedZipf (tests/common/seed_zipf_ref.h) is the per-Rng cached Zipf with
// its per-draw std::pow(0.5, theta), SeedLockSimulate is the
// std::unordered_map lock table, and SeedEngine is
// the engine Run() that constructed a fresh pool per evaluation, funneled
// page draws and lock-row draws through one shared Zipf constants cache, and
// iterated the WAL fixed point with the epsilon-only convergence test. The
// replicas consume the same Rng draw sequence as the production code, so
// "replica output == engine output, bit for bit, on a shared seed" is the
// equivalence contract the fast path is gated on (tolerance 0.0).
//
// These are reference implementations for tests only — they are
// deliberately NOT annotated as hot and never ship in src/.

#ifndef HUNTER_TESTS_CDB_SEED_ENGINE_REF_H_
#define HUNTER_TESTS_CDB_SEED_ENGINE_REF_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdb/instance_type.h"
#include "cdb/knob.h"
#include "cdb/lock_manager.h"
#include "cdb/metric_catalog.h"
#include "cdb/simulated_engine.h"
#include "cdb/wal.h"
#include "cdb/workload_profile.h"
#include "common/rng.h"
#include "tests/common/seed_zipf_ref.h"

namespace hunter::seedref {

// ---------------------------------------------------------------------------
// SeedBufferPool: the pre-PR std::list + std::unordered_map LRU, verbatim.
// ---------------------------------------------------------------------------
class SeedBufferPool {
 public:
  explicit SeedBufferPool(uint64_t capacity_pages)
      : capacity_(std::max<uint64_t>(1, capacity_pages)) {
    entries_.reserve(capacity_);
  }

  bool Access(uint64_t page_id, bool make_dirty) {
    auto it = entries_.find(page_id);
    if (it != entries_.end()) {
      ++hits_;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(page_id);
      it->second.lru_pos = lru_.begin();
      if (make_dirty && !it->second.dirty) {
        it->second.dirty = true;
        ++dirty_count_;
      }
      return true;
    }
    ++misses_;
    if (entries_.size() >= capacity_) EvictOne();
    lru_.push_front(page_id);
    Entry entry;
    entry.lru_pos = lru_.begin();
    entry.dirty = make_dirty;
    if (make_dirty) ++dirty_count_;
    entries_.emplace(page_id, entry);
    return false;
  }

  uint64_t FlushDirty(uint64_t max_pages) {
    uint64_t cleaned = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend() && cleaned < max_pages;
         ++it) {
      auto entry = entries_.find(*it);
      if (entry->second.dirty) {
        entry->second.dirty = false;
        --dirty_count_;
        ++cleaned;
      }
    }
    return cleaned;
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t resident_pages() const { return entries_.size(); }
  uint64_t dirty_pages() const { return dirty_count_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }

  double HitRatio() const {
    const uint64_t total = hits_ + misses_;
    return total == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(total);
  }

  double DirtyFraction() const {
    return entries_.empty() ? 0.0
                            : static_cast<double>(dirty_count_) /
                                  static_cast<double>(entries_.size());
  }

  void ResetCounters() {
    hits_ = 0;
    misses_ = 0;
    dirty_evictions_ = 0;
  }

  void Prewarm(uint64_t n) {
    const uint64_t count = std::min(n, capacity_);
    for (uint64_t page = 0; page < count; ++page) {
      if (entries_.find(page) == entries_.end()) {
        if (entries_.size() >= capacity_) EvictOne();
        lru_.push_back(page);
        Entry entry;
        entry.lru_pos = std::prev(lru_.end());
        entries_.emplace(page, entry);
      }
    }
  }

 private:
  struct Entry {
    std::list<uint64_t>::iterator lru_pos;
    bool dirty = false;
  };

  void EvictOne() {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it->second.dirty) {
      ++dirty_evictions_;
      --dirty_count_;
    }
    entries_.erase(it);
  }

  uint64_t capacity_;
  std::list<uint64_t> lru_;  // front = most recent
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t dirty_evictions_ = 0;
};

// ---------------------------------------------------------------------------
// SeedLockSimulate: the pre-PR LockManager::Simulate, verbatim, with its
// std::unordered_map lock table and its row draws going through the shared
// per-Rng Zipf cache (`zipf_state`).
// ---------------------------------------------------------------------------
inline cdb::LockSimResult SeedLockSimulate(const cdb::LockSimConfig& config,
                                           common::Rng* rng,
                                           SeedZipfState* zipf_state) {
  cdb::LockSimResult result;
  if (config.num_txns == 0 || config.writes_per_txn <= 0.0) return result;

  struct LockEntry {
    double release_time = 0.0;
    double acquire_end = 0.0;
  };
  std::unordered_map<uint64_t, LockEntry> lock_table;
  lock_table.reserve(config.num_txns);

  const double inter_arrival =
      config.hold_time_ms / std::max(1.0, config.concurrency);
  const double acquire_phase = 0.4 * config.hold_time_ms;

  double total_wait = 0.0;
  size_t conflicted = 0, deadlocks = 0, timeouts = 0;

  for (size_t txn = 0; txn < config.num_txns; ++txn) {
    const double arrival = static_cast<double>(txn) * inter_arrival;
    const size_t writes = static_cast<size_t>(std::max(
        1.0, std::round(config.writes_per_txn + rng->Gaussian(0.0, 0.5))));
    double now = arrival;
    double txn_wait = 0.0;
    bool waited = false;
    bool dead = false;
    size_t held = 0;

    for (size_t w = 0; w < writes; ++w) {
      const uint64_t row =
          SeedZipf(zipf_state, rng, config.hot_rows, config.zipf_theta);
      now = arrival + acquire_phase * static_cast<double>(w + 1) /
                          static_cast<double>(writes) +
            txn_wait;
      auto it = lock_table.find(row);
      if (it != lock_table.end() && it->second.release_time > now) {
        waited = true;
        if (held > 0 && now < it->second.acquire_end && rng->Bernoulli(0.25)) {
          ++deadlocks;
          dead = true;
          if (config.deadlock_detect) {
            txn_wait += 1.0;
            break;
          }
          txn_wait += config.lock_wait_timeout_ms;
          ++timeouts;
          break;
        }
        const double wait = it->second.release_time - now;
        if (wait > config.lock_wait_timeout_ms) {
          txn_wait += config.lock_wait_timeout_ms;
          ++timeouts;
          break;
        }
        txn_wait += wait;
        now += wait;
      }
      LockEntry entry;
      entry.release_time = arrival + txn_wait + config.hold_time_ms;
      entry.acquire_end = arrival + txn_wait + acquire_phase;
      lock_table[row] = entry;
      ++held;
    }

    total_wait += txn_wait;
    if (waited) ++conflicted;
    (void)dead;
  }

  const double n = static_cast<double>(config.num_txns);
  result.mean_wait_ms = total_wait / n;
  result.conflict_rate = static_cast<double>(conflicted) / n;
  result.deadlock_rate = static_cast<double>(deadlocks) / n;
  result.timeout_rate = static_cast<double>(timeouts) / n;
  return result;
}

// ---------------------------------------------------------------------------
// SeedEngine: the pre-PR SimulatedEngine, verbatim. A fresh SeedBufferPool
// is constructed per Run, every Zipf draw (pages and lock rows) goes through
// one shared SeedZipfState replicating the per-Rng cache — so the two
// distributions thrash each other's constants within every Run, exactly as
// the seed did — and the WAL fixed point uses the epsilon-only convergence
// test.
// ---------------------------------------------------------------------------
class SeedEngine {
 public:
  SeedEngine(const cdb::KnobCatalog* catalog, cdb::InstanceType instance,
             cdb::EngineTuning tuning)
      : catalog_(catalog), instance_(instance), tuning_(tuning) {
    constexpr size_t kNumRoles =
        static_cast<size_t>(cdb::KnobRole::kGeneric) + 1;
    role_index_.assign(kNumRoles, -1);
    for (size_t i = 0; i < catalog_->size(); ++i) {
      const cdb::KnobDef& def = catalog_->knob(i);
      if (def.role == cdb::KnobRole::kGeneric) {
        const uint64_t h = HashName(def.name);
        generic_knobs_.push_back({i, 0.0008 + 0.0045 * UnitHash(h),
                                  0.15 + 0.7 * UnitHash(h ^ 0x5bd1e995u)});
      } else if (role_index_[static_cast<size_t>(def.role)] < 0) {
        role_index_[static_cast<size_t>(def.role)] = static_cast<int>(i);
      }
    }
  }

  bool ValidateBoot(const cdb::Configuration& config,
                    std::string* reason) const {
    const double ram_mb = instance_.ram_gb * 1024.0;
    const double bp_mb =
        KnobValue(config, cdb::KnobRole::kBufferPoolSize, 128.0);
    const double max_conn =
        KnobValue(config, cdb::KnobRole::kMaxConnections, 151.0);
    const double log_buffer_mb =
        KnobValue(config, cdb::KnobRole::kLogBufferSize, 16.0);
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

  cdb::PerfResult Run(const cdb::Configuration& config,
                      const cdb::WorkloadProfile& workload, bool warm_start,
                      common::Rng* rng) const {
    if (!ValidateBoot(config, nullptr)) return cdb::BootFailureResult();

    // ---- Knob extraction.
    const double bp_mb =
        KnobValue(config, cdb::KnobRole::kBufferPoolSize, 128.0);
    const int flush_policy = static_cast<int>(
        KnobValue(config, cdb::KnobRole::kFlushPolicy, 1.0));
    const double binlog_sync =
        KnobValue(config, cdb::KnobRole::kBinlogSync, 1.0);
    const double log_file_mb =
        KnobValue(config, cdb::KnobRole::kLogFileSize, 48.0);
    const double log_buffer_mb =
        KnobValue(config, cdb::KnobRole::kLogBufferSize, 16.0);
    const double io_capacity =
        KnobValue(config, cdb::KnobRole::kIoCapacity, 200.0);
    const double io_capacity_max = std::max(
        io_capacity, KnobValue(config, cdb::KnobRole::kIoCapacityMax, 2000.0));
    const double thread_concurrency =
        KnobValue(config, cdb::KnobRole::kThreadConcurrency, 0.0);
    const double max_conn =
        KnobValue(config, cdb::KnobRole::kMaxConnections, 151.0);
    const double bp_instances = std::max(
        1.0, KnobValue(config, cdb::KnobRole::kBufferPoolInstances, 1.0));
    const double read_io_threads =
        std::max(1.0, KnobValue(config, cdb::KnobRole::kReadIoThreads, 4.0));
    const double thread_cache =
        KnobValue(config, cdb::KnobRole::kThreadCache, 9.0);
    const int flush_method = static_cast<int>(
        KnobValue(config, cdb::KnobRole::kFlushMethod, 0.0));
    const bool adaptive_hash =
        KnobValue(config, cdb::KnobRole::kAdaptiveHash, 1.0) >= 0.5;
    const double change_buffering =
        KnobValue(config, cdb::KnobRole::kChangeBuffering, 2.0);
    const double max_dirty_pct =
        KnobValue(config, cdb::KnobRole::kMaxDirtyPct, 75.0);
    const double lru_scan_depth =
        KnobValue(config, cdb::KnobRole::kLruScanDepth, 1024.0);
    const double lock_wait_timeout_s =
        KnobValue(config, cdb::KnobRole::kLockWaitTimeout, 50.0);
    const bool deadlock_detect =
        KnobValue(config, cdb::KnobRole::kDeadlockDetect, 1.0) >= 0.5;
    const double table_cache =
        KnobValue(config, cdb::KnobRole::kTableCache, 2000.0);
    const bool doublewrite =
        KnobValue(config, cdb::KnobRole::kDoubleWrite, 1.0) >= 0.5;

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
    SeedBufferPool pool(bp_pages);
    if (warm_start) {
      pool.Prewarm(std::min<uint64_t>(bp_pages, data_pages));
    }
    const double write_access_fraction = 1.0 - workload.read_fraction;
    const int warmup = warm_start ? kWarmupAccesses / 4 : kWarmupAccesses;
    const size_t total_accesses =
        static_cast<size_t>(warmup) + static_cast<size_t>(kMeasuredAccesses);
    access_pages_.resize(total_accesses);
    access_is_write_.resize(total_accesses);
    for (size_t i = 0; i < total_accesses; ++i) {
      access_pages_[i] =
          SeedZipf(&zipf_state_, rng, data_pages, workload.zipf_theta);
      access_is_write_[i] = rng->Bernoulli(write_access_fraction) ? 1 : 0;
    }
    for (int i = 0; i < warmup; ++i) {
      const size_t a = static_cast<size_t>(i);
      pool.Access(access_pages_[a], access_is_write_[a] != 0);
    }
    pool.ResetCounters();
    for (int i = 0; i < kMeasuredAccesses; ++i) {
      const size_t a = static_cast<size_t>(warmup + i);
      pool.Access(access_pages_[a], access_is_write_[a] != 0);
      if ((i & 255) == 0) {
        pool.FlushDirty(static_cast<uint64_t>(io_capacity / 256.0) + 1);
      }
    }
    const double miss_ratio = 1.0 - pool.HitRatio();
    const double dirty_fraction = pool.DirtyFraction();

    // ---- Per-transaction demand components.
    const double read_ops = workload.ops_per_txn * workload.read_fraction;
    const double write_ops = workload.ops_per_txn - read_ops;
    const double point_reads = read_ops * (1.0 - workload.scan_fraction);
    const double scan_reads = read_ops * workload.scan_fraction;
    const double page_reads_per_txn = point_reads + scan_reads * 16.0 * 0.5;
    const double misses_per_txn = page_reads_per_txn * miss_ratio;

    const double prefetch =
        std::clamp(std::sqrt(read_io_threads / 4.0), 0.7, 2.2);
    const double io_wait_ms = misses_per_txn * tuning_.io_read_ms / prefetch;

    double dirty_pages_per_txn = workload.write_rows_per_txn * 0.4;
    if (change_buffering >= 1.5) {
      dirty_pages_per_txn *= 0.75;
    } else if (change_buffering >= 0.5) {
      dirty_pages_per_txn *= 0.88;
    }

    double cpu_ms =
        workload.ops_per_txn * workload.cpu_ms_per_op * tuning_.cpu_scale;
    if (adaptive_hash) cpu_ms *= 1.0 - 0.08 * workload.read_fraction;
    if (change_buffering >= 1.5) {
      cpu_ms *= 1.0 + 0.02 * workload.read_fraction;
    }
    const double write_io_threads =
        std::max(1.0, KnobValue(config, cdb::KnobRole::kWriteIoThreads, 4.0));
    cpu_ms *= 1.0 + 0.0025 * (read_io_threads + write_io_threads);
    {
      const double ram_mb = instance_.ram_gb * 1024.0;
      const double committed_fraction =
          (bp_mb + max_conn * kConnectionMemoryMb + log_buffer_mb) / ram_mb;
      if (committed_fraction > 0.80) {
        cpu_ms *= 1.0 + 3.0 * (committed_fraction - 0.80);
      }
    }
    double generic_penalty = 0.0;
    for (const GenericKnobEffect& g : generic_knobs_) {
      const double opt = g.opt_base + 0.1 * (workload.read_fraction - 0.5);
      const double x = catalog_->Normalize(g.knob_index, config[g.knob_index]);
      const double d = x - std::clamp(opt, 0.05, 0.95);
      generic_penalty += g.weight * d * d;
    }
    cpu_ms *= 1.0 + generic_penalty;
    cpu_ms += misses_per_txn * 0.025;
    cpu_ms += 0.05 * std::max(0.0, 1.0 - table_cache / 1500.0);
    const double churn_prob =
        0.02 * std::max(0.0, 1.0 - thread_cache / (0.3 * n_clients + 1.0));
    cpu_ms += churn_prob * 2.0;

    // ---- Lock contention (miniature lock-table replay).
    const double base_service_ms = cpu_ms + io_wait_ms;
    cdb::LockSimConfig lock_config;
    lock_config.num_txns = 400;
    lock_config.concurrency = n_exec;
    lock_config.writes_per_txn = workload.hot_writes_per_txn;
    lock_config.hot_rows = workload.hot_rows;
    lock_config.zipf_theta = workload.lock_zipf_theta;
    lock_config.hold_time_ms = std::max(0.5, base_service_ms);
    lock_config.lock_wait_timeout_ms = lock_wait_timeout_s * 1000.0;
    lock_config.deadlock_detect = deadlock_detect;
    const cdb::LockSimResult locks =
        SeedLockSimulate(lock_config, rng, &zipf_state_);
    if (deadlock_detect) {
      cpu_ms += 0.3 * locks.conflict_rate;
    }

    // ---- USL-style latch contention on the CPU path.
    const double bp_partition_factor =
        std::max(0.22, (1.0 + 4.0 / bp_instances) / 5.0);
    double sigma = tuning_.latch_sigma * bp_partition_factor;
    if (adaptive_hash) sigma += 0.0008 * (1.0 - workload.read_fraction);
    const double latch_eff = 1.0 + sigma * (n_exec - 1.0) +
                             tuning_.latch_kappa * n_exec * (n_exec - 1.0);

    // ---- Fixed point over throughput.
    double throughput = n_clients / std::max(0.1, base_service_ms) * 1000.0;
    cdb::WalConfig wal_config;
    wal_config.flush_policy = flush_policy;
    wal_config.binlog_sync_every = static_cast<int>(binlog_sync);
    wal_config.log_file_mb = log_file_mb;
    wal_config.log_buffer_mb = log_buffer_mb;
    wal_config.fsync_ms = instance_.fsync_latency_ms;
    wal_config.flush_method = flush_method;
    wal_config.doublewrite = doublewrite;
    wal_config.io_capacity = io_capacity;
    cdb::WalWorkload wal_workload;
    wal_workload.redo_kb_per_txn = workload.redo_kb_per_txn;
    wal_workload.concurrent_committers = n_exec;
    const cdb::WalInvariants wal_invariants =
        cdb::WalModel::Precompute(wal_config, wal_workload);
    const double write_activity =
        std::clamp(workload.redo_kb_per_txn / 0.5, 0.0, 1.0);
    cdb::WalCost wal;
    double stall_ms = 0.0;
    for (int iter = 0; iter < 40; ++iter) {
      wal = cdb::WalModel::EstimateAtRate(wal_invariants, throughput);
      wal.commit_cost_ms *= write_activity;
      wal.log_wait_ms *= write_activity;

      const bool bursting = dirty_fraction * 100.0 > max_dirty_pct;
      const double cleaner_eff =
          std::clamp(lru_scan_depth / 1024.0, 0.5, 2.0);
      const double flush_capacity =
          (bursting ? io_capacity_max : io_capacity) * cleaner_eff;
      const double dirty_rate = throughput * dirty_pages_per_txn;
      const double surplus = std::max(0.0, dirty_rate - flush_capacity);
      stall_ms = surplus / std::max(1.0, throughput) * tuning_.fg_flush_ms *
                 wal.write_amplification;
      if (bursting) stall_ms += 0.05;
      if (max_dirty_pct > 90.0) stall_ms += 0.02 * (max_dirty_pct - 90.0);
      stall_ms += 0.00002 * lru_scan_depth;

      const double service_ms = cpu_ms + io_wait_ms + wal.commit_cost_ms +
                                wal.log_wait_ms + wal.checkpoint_stall_ms +
                                locks.mean_wait_ms + stall_ms;
      const double x_threads = n_exec / service_ms * 1000.0;
      const double x_cpu = instance_.cpu_cores * 1000.0 / cpu_ms / latch_eff;
      const double device_ops_per_txn =
          misses_per_txn + dirty_pages_per_txn * wal.write_amplification * 0.5;
      const double excess_flush =
          std::max(0.0, flush_capacity - 2.0 * std::max(10.0, dirty_rate));
      const double read_iops_available =
          std::max(instance_.disk_read_iops * 0.2,
                   instance_.disk_read_iops - 0.5 * excess_flush);
      const double x_io =
          read_iops_available / std::max(0.01, device_ops_per_txn);
      const double x_log = 1000.0 / std::max(0.004, wal.commit_cost_ms);
      const double fg_flush_capacity =
          instance_.disk_write_iops * 0.3 / wal.write_amplification;
      const double x_dirty =
          dirty_pages_per_txn > 0.01
              ? (flush_capacity + fg_flush_capacity) / dirty_pages_per_txn
              : std::numeric_limits<double>::infinity();
      const double x_new = std::min(
          std::min(std::min(x_threads, x_cpu), std::min(x_io, x_log)),
          x_dirty);
      const double next = 0.5 * throughput + 0.5 * x_new;
      const bool converged = std::abs(next - throughput) < 0.002 * throughput;
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
    cdb::PerfResult result;
    result.throughput_tps = throughput;
    result.latency_p95_ms = latency_p95;
    result.latency_p99_ms = latency_p99;
    result.latents[cdb::kLatHitRatio] = 1.0 - miss_ratio;
    result.latents[cdb::kLatMissRate] = misses_per_txn * throughput;
    result.latents[cdb::kLatDirtyFraction] = dirty_fraction;
    result.latents[cdb::kLatFlushRate] = std::min(
        throughput * dirty_pages_per_txn,
        io_capacity_max * std::clamp(lru_scan_depth / 1024.0, 0.5, 2.0));
    result.latents[cdb::kLatLogWait] = wal.log_wait_ms + wal.commit_cost_ms;
    result.latents[cdb::kLatLockWait] = locks.mean_wait_ms;
    result.latents[cdb::kLatDeadlockRate] = locks.deadlock_rate * 1000.0;
    result.latents[cdb::kLatThreadsRunning] =
        std::min(n_exec, throughput * (cpu_ms + io_wait_ms) / 1000.0 + 1.0);
    result.latents[cdb::kLatCpuUtil] = std::clamp(
        throughput * cpu_ms / 1000.0 / instance_.cpu_cores, 0.0, 1.0);
    result.latents[cdb::kLatIoUtil] =
        std::clamp(throughput * (misses_per_txn + dirty_pages_per_txn) /
                       instance_.disk_read_iops,
                   0.0, 1.0);
    result.latents[cdb::kLatCommitRate] = throughput;
    result.latents[cdb::kLatReadRowRate] = throughput * read_ops;
    result.latents[cdb::kLatWriteRowRate] = throughput * write_ops;
    result.latents[cdb::kLatCheckpointRate] = wal.checkpoints_per_sec;
    result.latents[cdb::kLatTmpUsage] = throughput * scan_reads * 0.3;
    result.latents[cdb::kLatConnChurn] = churn_prob * throughput;
    result.metrics = cdb::LatentsToMetrics(result.latents, rng);
    return result;
  }

 private:
  struct GenericKnobEffect {
    size_t knob_index = 0;
    double weight = 0.0;
    double opt_base = 0.0;
  };

  // Local copies of the engine's file-static hash helpers.
  static uint64_t HashName(const std::string& name) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (char c : name) {
      h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ull;
    }
    return h;
  }

  static double UnitHash(uint64_t h) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  double KnobValue(const cdb::Configuration& config, cdb::KnobRole role,
                   double fallback) const {
    const int index = role_index_[static_cast<size_t>(role)];
    if (index < 0) return fallback;
    return config[static_cast<size_t>(index)];
  }

  static constexpr double kConnectionMemoryMb = 1.5;
  static constexpr double kRamBudgetFraction = 0.95;
  static constexpr int kWarmupAccesses = 2000;
  static constexpr int kMeasuredAccesses = 3000;
  static constexpr double kMaxDataPages = 8192.0;

  const cdb::KnobCatalog* catalog_;  // not owned
  cdb::InstanceType instance_;
  cdb::EngineTuning tuning_;
  std::vector<int> role_index_;
  std::vector<GenericKnobEffect> generic_knobs_;
  mutable std::vector<uint64_t> access_pages_;
  mutable std::vector<uint8_t> access_is_write_;
  // The seed's per-Rng Zipf cache: shared by page draws and lock-row draws.
  mutable SeedZipfState zipf_state_;
};

}  // namespace hunter::seedref

#endif  // HUNTER_TESTS_CDB_SEED_ENGINE_REF_H_
