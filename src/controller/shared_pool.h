// The Shared Pool of stress-test samples (§2.1). The Sample Factory fills
// it during phase 1; the Search Space Optimizer consumes all of it in phase
// 2; the Recommender warm-starts its replay buffer from it in phase 3.
// HunterTuner's tuning loop is the one writer; the mutex makes every call
// safe from any thread (ConcurrentAddBatchBestSnapshotStress checks it).

#ifndef HUNTER_CONTROLLER_SHARED_POOL_H_
#define HUNTER_CONTROLLER_SHARED_POOL_H_

#include <cstddef>
#include <mutex>
#include <vector>

#include "controller/sample.h"

namespace hunter::controller {

class SharedPool {
 public:
  void Add(Sample sample);
  void AddBatch(const std::vector<Sample>& samples);

  // Snapshot of all samples (copy; the pool keeps growing concurrently).
  std::vector<Sample> Snapshot() const;

  size_t size() const;
  void Clear();

  // The best sample by fitness; returns false if the pool is empty or every
  // sample failed to boot.
  bool Best(Sample* best) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;  // guarded by mutex_
};

}  // namespace hunter::controller

#endif  // HUNTER_CONTROLLER_SHARED_POOL_H_
