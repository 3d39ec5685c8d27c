#include "cdb/lock_manager.h"

#include <algorithm>
#include <cmath>

#include "common/flat_hash.h"

namespace hunter::cdb {
namespace {

// One row's lock state on the simulated timeline.
struct Entry {
  double release_time = 0.0;
  // End of the holder's acquisition phase; a waiter arriving before this
  // can form a cycle with the holder (both still collecting locks).
  double acquire_end = 0.0;
};

// One thread's replay scratch: the lock table, whose slab survives across
// calls, and the row sampler, whose constants do.
struct ReplayScratch {
  common::FlatHashMap64<Entry> table;
  common::ZipfTable rows;
};

ReplayScratch& ThreadReplayScratch() {
  thread_local ReplayScratch scratch;
  return scratch;
}

}  // namespace

// hunterlint: hot
LockSimResult LockManager::Simulate(const LockSimConfig& config,
                                    common::Rng* rng) {
  LockSimResult result;
  if (config.num_txns == 0 || config.writes_per_txn <= 0.0) return result;

  // Size the table for the expected distinct-row population, not the txn
  // count: with low skew nearly every drawn row is distinct, and a table
  // reserved only for num_txns rehashes (twice, for the default write mix)
  // in the middle of the replay. Capped by hot_rows, the whole row space.
  const size_t expected_rows = static_cast<size_t>(
      std::min<uint64_t>(config.hot_rows,
                         static_cast<uint64_t>(config.num_txns) *
                             (static_cast<uint64_t>(config.writes_per_txn) + 1)));
  ReplayScratch& scratch = ThreadReplayScratch();
  common::FlatHashMap64<Entry>* lock_table = &scratch.table;
  lock_table->Reset(expected_rows);
  common::ZipfTable* rows = &scratch.rows;
  rows->Rebind(config.hot_rows, config.zipf_theta);

  // Transactions arrive so that `concurrency` of them overlap on average.
  const double inter_arrival =
      config.hold_time_ms / std::max(1.0, config.concurrency);
  // Locks are acquired over the first ~40% of the transaction's lifetime.
  const double acquire_phase = 0.4 * config.hold_time_ms;
  // Loop-invariant config terms, read once instead of per lock probe.
  const double hold_time_ms = config.hold_time_ms;
  const double wait_timeout_ms = config.lock_wait_timeout_ms;
  const bool deadlock_detect = config.deadlock_detect;

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
      const uint64_t row = rows->Sample(rng);
      now = arrival + acquire_phase * static_cast<double>(w + 1) /
                          static_cast<double>(writes) + txn_wait;
      const Entry* holder = lock_table->Find(row);
      if (holder != nullptr && holder->release_time > now) {
        waited = true;
        // Potential deadlock: we already hold locks and the holder is still
        // inside its own acquisition phase (it may come to wait on us). A
        // cycle only forms if the holder actually picks one of our rows,
        // which is itself roughly a conflict-probability event.
        if (held > 0 && now < holder->acquire_end && rng->Bernoulli(0.25)) {
          ++deadlocks;
          dead = true;
          if (deadlock_detect) {
            // Detected immediately: this txn aborts, paying a small penalty.
            txn_wait += 1.0;
            break;
          }
          // Without detection the cycle only breaks via the wait timeout.
          txn_wait += wait_timeout_ms;
          ++timeouts;
          break;
        }
        const double wait = holder->release_time - now;
        if (wait > wait_timeout_ms) {
          txn_wait += wait_timeout_ms;
          ++timeouts;
          break;
        }
        txn_wait += wait;
        now += wait;
      }
      Entry entry;
      entry.release_time = arrival + txn_wait + hold_time_ms;
      entry.acquire_end = arrival + txn_wait + acquire_phase;
      lock_table->At(row) = entry;
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

}  // namespace hunter::cdb
