// A real LRU buffer pool used by the simulated engine.
//
// The engine streams sampled page accesses through this structure to obtain
// an *emergent* hit ratio (rather than a closed-form one), so that buffer
// pool sizing shows the realistic concave improvement curve the tuners must
// discover, including skew effects (a small pool still captures a Zipfian
// head) and working-set plateaus.
//
// Page ids are Zipf ranks in a bounded page space ([0, page_space), at most
// 8192 pages in the engine), so the pool is indexed by page id directly:
// `slot_of_` holds one uint32 slot number per page, kNil when the page is
// not resident. Recency is an intrusive doubly linked list of uint32 slot
// indices over slabs of min(capacity, page_space) slots. Slots are handed
// out in order until the pool is full; after that a miss reuses the LRU
// tail's slot in place, so there is no free list and no eviction path. An
// Access is allocation-free and touches a handful of array entries.
//
// The page cleaner does not re-walk the pages it cleaned: `frontier_` is a
// slot such that every colder slot is clean (kNil when every slot is). A
// page turns dirty only at the head, so the frontier moves only when its
// own slot leaves for the head (to the warmer neighbour) or when a slot
// reaches the head while it is kNil (to that slot), and FlushDirty starts
// at the frontier instead of the tail.
//
// `Reset(capacity, page_space)` re-arms one pool for a new run: it clears
// only the resident pages' index entries (O(resident)) and grows the slabs
// when they are too small; they never shrink. The observable
// hit/miss/evict/flush sequence is bit-identical to the original
// std::list + std::unordered_map implementation — pinned by the
// equivalence tests in tests/cdb/buffer_pool_test.cc.

#ifndef HUNTER_CDB_BUFFER_POOL_H_
#define HUNTER_CDB_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

namespace hunter::cdb {

class BufferPool {
 public:
  BufferPool(uint64_t capacity_pages, uint64_t page_space) {
    Reset(capacity_pages, page_space);
  }

  // Empties the pool and re-arms it for a run over pages [0, page_space)
  // with `capacity_pages` slots (clamped to at least one). All counters
  // (including dirty state) restart from zero — equivalent to constructing
  // a fresh pool, without the allocation once the slabs are big enough.
  void Reset(uint64_t capacity_pages, uint64_t page_space);

  // Touches a page: returns true on hit. On miss, the page is installed and
  // the LRU victim evicted (a dirty victim counts as a flush-on-evict).
  // `make_dirty` marks the page dirty (a write access). Requires
  // `page_id < page_space`. Defined inline: the engine's replay loop is a
  // tight sequence of these calls and the call boundary was a measurable
  // share of the per-access cost.
  // hunterlint: hot
  bool Access(uint64_t page_id, bool make_dirty) {
    uint32_t slot = slot_of_[page_id];
    if (slot != kNil) {
      ++hits_;
      MoveToFront(slot);
      if (frontier_ == kNil) frontier_ = slot;
      if (make_dirty && dirty_[slot] == 0) {
        dirty_[slot] = 1;
        ++dirty_count_;
      }
      return true;
    }
    ++misses_;
    if (size_ < capacity_) {
      // Not full yet, so the page space is not exhausted either: the next
      // slot in order is free.
      slot = size_++;
      prev_[slot] = kNil;
      next_[slot] = head_;
      if (head_ != kNil) {
        prev_[head_] = slot;
      } else {
        tail_ = slot;
      }
      head_ = slot;
    } else {
      // Evict the LRU tail and install the incoming page in its slot.
      slot = tail_;
      if (dirty_[slot] != 0) {
        ++dirty_evictions_;
        --dirty_count_;
      }
      slot_of_[pages_[slot]] = kNil;
      MoveToFront(slot);
    }
    if (frontier_ == kNil) frontier_ = slot;
    pages_[slot] = static_cast<uint32_t>(page_id);
    slot_of_[page_id] = slot;
    dirty_[slot] = make_dirty ? 1 : 0;
    if (make_dirty) ++dirty_count_;
    return false;
  }

  // Background flushing: cleans up to `max_pages` dirty pages (oldest
  // first), returning how many were cleaned. The walk starts at the
  // frontier, so it visits no slot an earlier walk left clean.
  uint64_t FlushDirty(uint64_t max_pages);

  uint64_t capacity() const { return capacity_; }
  uint64_t resident_pages() const { return size_; }
  uint64_t dirty_pages() const { return dirty_count_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }

  double HitRatio() const;
  double DirtyFraction() const;

  void ResetCounters();

  // Pre-warms a just-reset pool with pages [0, n), clamped to the capacity
  // and the page space — models the CDB warm-up function that reloads the
  // buffer pool from disk after a restart (§5). Page 0 ends up most
  // recently used and the last page least.
  void Prewarm(uint64_t n);

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  // Splices a resident slot to the front (most-recently-used position). The
  // frontier slot hands the frontier to its warmer neighbour: the slots
  // colder than that neighbour are then the clean ones colder than it.
  void MoveToFront(uint32_t slot) {
    if (head_ == slot) return;
    const uint32_t p = prev_[slot];
    if (slot == frontier_) frontier_ = p;
    const uint32_t n = next_[slot];
    next_[p] = n;  // p != kNil because slot != head_
    if (n != kNil) {
      prev_[n] = p;
    } else {
      tail_ = p;
    }
    prev_[slot] = kNil;
    next_[slot] = head_;
    prev_[head_] = slot;
    head_ = slot;
  }

  uint64_t capacity_ = 1;
  uint64_t page_space_ = 0;
  std::vector<uint32_t> slot_of_;  // page id -> slot, kNil if not resident
  std::vector<uint32_t> pages_;    // slot -> page id
  std::vector<uint32_t> prev_;     // toward the front (warmer)
  std::vector<uint32_t> next_;     // toward the back (colder)
  std::vector<uint8_t> dirty_;     // per-slot dirty bit
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t frontier_ = kNil;  // every colder slot is clean; kNil: all are
  uint32_t size_ = 0;
  uint64_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t dirty_evictions_ = 0;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_BUFFER_POOL_H_
