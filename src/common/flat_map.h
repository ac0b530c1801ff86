// FlatIdMap: an open-addressing hash map from a small trivially copyable
// key to a dense int32 id, built for per-call scratch state that is
// cleared and refilled many times.
//
// Slots live in one flat array probed linearly; each slot carries the
// epoch it was written in, so Clear() is O(1) and keeps the capacity.
// Once a reused map has grown to its working size, lookups and inserts
// never allocate.

#ifndef XSACT_COMMON_FLAT_MAP_H_
#define XSACT_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xsact {

/// Hash for packed integer keys (a murmur3 finalizer).
struct Mix64Hash {
  size_t operator()(uint64_t x) const {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// Key -> int32 map. `Hash` must spread its bits over the low end of the
/// result (the table is a power of two and masks the hash).
template <typename Key, typename Hash>
class FlatIdMap {
 public:
  /// Returns {stored id, true} after storing `id` under a new `key`, or
  /// {existing id, false} when `key` is already present. `id` may be any
  /// value but -1, which Find reserves for "absent".
  std::pair<int32_t, bool> Insert(const Key& key, int32_t id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Slot* slot = Probe(key);
    if (slot->epoch == epoch_) return {slot->id, false};
    *slot = Slot{key, id, epoch_};
    ++size_;
    return {id, true};
  }

  /// Returns the id stored under `key`, or -1.
  int32_t Find(const Key& key) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash()(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return -1;
      if (slot.key == key) return slot.id;
    }
  }

  /// Forgets every entry in O(1); the slot array keeps its capacity.
  void Clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // wrap: no stale stamp may equal a live epoch
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    Key key{};
    int32_t id = -1;
    uint32_t epoch = 0;  ///< live iff equal to the map's epoch_
  };

  /// The slot holding `key`, or the empty slot where it would go.
  Slot* Probe(const Key& key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash()(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_ || slot.key == key) return &slot;
    }
  }

  /// Doubles the slot array and re-inserts the live entries (size_ is
  /// unchanged).
  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, slots_.size() * 2));
    old.swap(slots_);
    const uint32_t live = epoch_;
    epoch_ = 1;
    for (const Slot& slot : old) {
      if (slot.epoch == live) *Probe(slot.key) = Slot{slot.key, slot.id, 1};
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t epoch_ = 1;
};

}  // namespace xsact

#endif  // XSACT_COMMON_FLAT_MAP_H_
