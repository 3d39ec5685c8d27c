#include "ml/replay_buffer.h"

namespace hunter::ml {

void ReplayBuffer::Add(Transition transition) {
  if (buffer_.size() >= capacity_) buffer_.pop_front();
  buffer_.push_back(std::move(transition));
}

void ReplayBuffer::SampleIndices(size_t batch_size, common::Rng* rng,
                                 std::vector<size_t>* out) const {
  out->clear();
  if (buffer_.empty()) return;
  out->reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    out->push_back(static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(buffer_.size()) - 1)));
  }
}

}  // namespace hunter::ml
