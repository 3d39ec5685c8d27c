#include "cdb/buffer_pool.h"

#include <algorithm>
#include <cassert>

namespace hunter::cdb {

void BufferPool::Reset(uint64_t capacity_pages, uint64_t page_space) {
  // Slots [0, size_) are exactly the resident ones, so clearing their pages'
  // index entries leaves the whole index kNil.
  for (uint32_t slot = 0; slot < size_; ++slot) slot_of_[pages_[slot]] = kNil;
  capacity_ = std::max<uint64_t>(1, capacity_pages);
  page_space_ = page_space;
  if (slot_of_.size() < page_space) slot_of_.resize(page_space, kNil);
  // A pool never holds more pages than the page space has. Stale per-slot
  // entries are never read: every insert writes its slot before any read.
  const uint64_t slots = std::min(capacity_, page_space);
  if (pages_.size() < slots) {
    pages_.resize(slots);
    prev_.resize(slots);
    next_.resize(slots);
    dirty_.resize(slots);
  }
  head_ = kNil;
  tail_ = kNil;
  frontier_ = kNil;
  size_ = 0;
  dirty_count_ = 0;
  hits_ = 0;
  misses_ = 0;
  dirty_evictions_ = 0;
}

// hunterlint: hot
uint64_t BufferPool::FlushDirty(uint64_t max_pages) {
  uint64_t cleaned = 0;
  // Clean from the cold end of the LRU, as page cleaners do, skipping the
  // clean slots behind the frontier. Stopping once no dirty pages remain
  // skips a provably no-op walk. The walk leaves every slot it visited
  // clean, so the first slot it did not visit is the new frontier.
  uint32_t slot = frontier_;
  for (; slot != kNil && cleaned < max_pages && dirty_count_ != 0;
       slot = prev_[slot]) {
    if (dirty_[slot] != 0) {
      dirty_[slot] = 0;
      --dirty_count_;
      ++cleaned;
    }
  }
  frontier_ = slot;
  return cleaned;
}

double BufferPool::HitRatio() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

double BufferPool::DirtyFraction() const {
  return size_ == 0 ? 0.0
                    : static_cast<double>(dirty_count_) /
                          static_cast<double>(size_);
}

void BufferPool::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
  dirty_evictions_ = 0;
}

void BufferPool::Prewarm(uint64_t n) {
  assert(size_ == 0);
  const uint32_t count =
      static_cast<uint32_t>(std::min({n, capacity_, page_space_}));
  if (count == 0) return;
  // Page i in slot i, linked front to back: the recency order of inserting
  // each page behind the previous one (prewarmed pages are colder than live
  // traffic). They are clean, so the frontier stays kNil.
  for (uint32_t slot = 0; slot < count; ++slot) {
    pages_[slot] = slot;
    slot_of_[slot] = slot;
    prev_[slot] = slot == 0 ? kNil : slot - 1;
    next_[slot] = slot + 1;
    dirty_[slot] = 0;
  }
  next_[count - 1] = kNil;
  head_ = 0;
  tail_ = count - 1;
  size_ = count;
}

}  // namespace hunter::cdb
