// Row-lock contention simulation.
//
// The engine calls this once per stress test to estimate lock waiting,
// deadlocks, and timeouts under the workload's conflict profile. Rather than
// a closed-form approximation, transactions are replayed over a miniature
// lock table on a simulated timeline so that conflict behaviour emerges from
// skew (Zipfian row choice), concurrency, and hold times — the mechanisms
// the lock-related knobs (innodb_lock_wait_timeout, innodb_deadlock_detect)
// actually manipulate.

#ifndef HUNTER_CDB_LOCK_MANAGER_H_
#define HUNTER_CDB_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace hunter::cdb {

struct LockSimConfig {
  size_t num_txns = 2000;          // transactions to replay
  double concurrency = 32;         // transactions in flight at once
  double writes_per_txn = 5;       // write-locked rows per transaction
  uint64_t hot_rows = 100000;      // size of the conflict-prone row set
  double zipf_theta = 0.8;         // row-choice skew
  double hold_time_ms = 5.0;       // average lock hold time
  double lock_wait_timeout_ms = 50000;
  bool deadlock_detect = true;
};

struct LockSimResult {
  double mean_wait_ms = 0.0;       // average wait added per transaction
  double conflict_rate = 0.0;      // fraction of txns that waited at all
  double deadlock_rate = 0.0;      // deadlocks per transaction
  double timeout_rate = 0.0;       // lock-wait timeouts per transaction
};

class LockManager {
 public:
  // Replays `config.num_txns` transactions over a miniature lock table.
  // The table and the row sampler are one thread_local scratch per thread
  // (lock_manager.cc), re-armed on every call: the table is reset, the
  // sampler rebound to (hot_rows, zipf_theta), which recomputes its
  // constants only when they changed. So a call is reentrant across
  // threads, allocation-free in steady state, and its result depends on
  // `config` and `rng` alone.
  static LockSimResult Simulate(const LockSimConfig& config, common::Rng* rng);
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_LOCK_MANAGER_H_
