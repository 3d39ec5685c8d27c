// Experience replay buffer for DDPG (§3.3). HUNTER warm-starts the
// Recommender by seeding this buffer with every sample the GA placed in the
// Shared Pool, which is the paper's key hybrid-architecture idea.

#ifndef HUNTER_ML_REPLAY_BUFFER_H_
#define HUNTER_ML_REPLAY_BUFFER_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "common/rng.h"

namespace hunter::ml {

// One stress test: a one-step episode (see ml/ddpg.h), so no next state.
struct Transition {
  std::vector<double> state;
  std::vector<double> action;
  double reward = 0.0;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity = 100000) : capacity_(capacity) {}

  void Add(Transition transition);

  // Uniformly samples `batch_size` indices into the buffer (with
  // replacement), one RNG draw each. Clears and fills `*out`; leaves it
  // empty when the buffer is. Copies no transition: the train loop reads
  // the sampled ones through at().
  void SampleIndices(size_t batch_size, common::Rng* rng,
                     std::vector<size_t>* out) const;

  const Transition& at(size_t index) const { return buffer_[index]; }

  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }
  void Clear() { buffer_.clear(); }

  const std::deque<Transition>& transitions() const { return buffer_; }

 private:
  size_t capacity_;
  std::deque<Transition> buffer_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_REPLAY_BUFFER_H_
