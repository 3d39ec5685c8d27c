// Open-addressing hash map with 64-bit keys, built for the engine hot paths.
//
// The simulated engine's per-evaluation loops (the lock table, the
// dependency graph's row indices) were bottlenecked on
// `std::unordered_map` node allocation and pointer chasing. FlatHashMap64
// stores keys and values in flat arrays with linear probing over a
// power-of-two table, so a lookup is a hash, a mask, and a short contiguous
// scan — no nodes, no per-insert allocation once the table is sized.
//
// Properties the hot paths rely on:
//   - `Reset(expected)` clears contents but keeps the slabs whenever they are
//     already big enough, so a lock table reused across evaluations
//     performs zero allocations in steady state.
//   - Deletion uses backward-shift (Robin-Hood style compaction of the probe
//     chain) instead of tombstones, so long-lived tables never degrade.
//   - Iteration order is never exposed: the map supports only point lookups,
//     keeping it trivially safe under the determinism rules (there is no
//     order to accidentally emit).

#ifndef HUNTER_COMMON_FLAT_HASH_H_
#define HUNTER_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hunter::common {

template <typename V>
class FlatHashMap64 {
 public:
  FlatHashMap64() = default;
  explicit FlatHashMap64(size_t expected_keys) { Reset(expected_keys); }

  // Clears all entries and ensures `expected_keys` fit without growth.
  // Returns true when the existing slab was large enough to be reused (no
  // reallocation happened). Clearing is O(1): occupancy is an epoch stamp
  // per slot, so emptying the table is one epoch bump rather than a walk
  // over every slot (a table sized for a large run would otherwise keep
  // paying a full-slab sweep on every later, smaller Reset).
  bool Reset(size_t expected_keys) {
    const size_t wanted = TableSizeFor(expected_keys);
    size_ = 0;
    if (slots_.size() >= wanted && !slots_.empty()) {
      if (++epoch_ == 0) {
        // uint32 epoch wrapped: re-zero the stamps once and restart.
        for (Slot& slot : slots_) slot.epoch = 0;
        epoch_ = 1;
      }
      return true;
    }
    slots_.assign(wanted, Slot{});
    mask_ = wanted - 1;
    epoch_ = 1;
    return false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Returns a pointer to the value for `key`, or nullptr if absent.
  V* Find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    size_t i = Bucket(key);
    while (Used(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatHashMap64*>(this)->Find(key);
  }

  // operator[]-style access: returns the value for `key`, default-inserting
  // it if absent (grows the table as needed).
  V& At(uint64_t key) {
    if (slots_.empty()) Reset(8);
    size_t i = Bucket(key);
    while (Used(i)) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
      i = Bucket(key);
      while (Used(i)) i = (i + 1) & mask_;
    }
    slots_[i].epoch = epoch_;
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  // Removes `key` if present; returns whether it was. Uses backward-shift
  // deletion so probe chains stay compact without tombstones.
  bool Erase(uint64_t key) {
    if (slots_.empty()) return false;
    size_t i = Bucket(key);
    while (Used(i) && slots_[i].key != key) i = (i + 1) & mask_;
    if (!Used(i)) return false;
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!Used(j)) break;
      const size_t ideal = Bucket(slots_[j].key);
      // Entry at j may move into the hole iff the hole lies on its probe
      // path, i.e. distance(ideal -> j) >= distance(hole -> j).
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        slots_[hole].epoch = epoch_;
        hole = j;
      }
    }
    slots_[hole].epoch = epoch_ - 1;
    --size_;
    return true;
  }

 private:
  // A slot is occupied iff its epoch stamp equals the table's current
  // epoch. Stale stamps are always strictly older: the stamp counter only
  // moves forward, and the wrap back to zero re-zeroes every slot. The
  // uint32 stamp occupies the same padding bytes the former bool did, so
  // the slot footprint is unchanged.
  struct Slot {
    uint64_t key = 0;
    V value{};
    uint32_t epoch = 0;
  };

  bool Used(size_t i) const { return slots_[i].epoch == epoch_; }

  // splitmix64 finalizer: full-avalanche mix so sequential keys (page ids,
  // row ids) spread over the table.
  static uint64_t Mix(uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  static size_t TableSizeFor(size_t expected_keys) {
    // Keep load factor <= 0.5: a table reserved for N keys never grows.
    size_t wanted = 8;
    while (wanted < expected_keys * 2) wanted <<= 1;
    return wanted;
  }

  size_t Bucket(uint64_t key) const {
    return static_cast<size_t>(Mix(key)) & mask_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const uint32_t old_epoch = epoch_;
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    epoch_ = 1;
    for (Slot& slot : old) {
      if (slot.epoch != old_epoch) continue;
      size_t i = Bucket(slot.key);
      while (Used(i)) i = (i + 1) & mask_;
      slots_[i].epoch = epoch_;
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint32_t epoch_ = 1;
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_FLAT_HASH_H_
