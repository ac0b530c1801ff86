// String interning: maps strings to dense integer ids.
//
// XSACT's feature catalog compares feature types and values billions of
// times inside the swap loops; interning turns those comparisons into
// integer equality and makes tie-breaking deterministic.
//
// Lookups are heterogeneous: Find/Intern take a string_view and probe the
// hash table directly, so a cache hit allocates nothing. Interned strings
// live in a deque (stable addresses); the hash table is one flat
// open-addressing array of (hash, id) slots, so a new string costs its
// own copy and no per-entry node, one hash computation per call, and
// growth re-slots entries from their stored hashes without touching the
// strings.

#ifndef XSACT_COMMON_INTERNER_H_
#define XSACT_COMMON_INTERNER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace xsact {

/// Bidirectional string <-> dense-id map. Ids are assigned in insertion
/// order starting at 0, which also gives a stable deterministic ordering.
class StringInterner {
 public:
  StringInterner() = default;
  /// Move-only: an interner can be large, and copying one is never meant.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns the id for `s`, inserting it if new. Allocates only when `s`
  /// has not been seen before.
  int32_t Intern(std::string_view s) {
    if ((strings_.size() + 1) * 4 > slots_.size() * 3) Grow();
    const uint32_t hash = Hash(s);
    Slot& slot = slots_[Probe(s, hash)];
    if (slot.id >= 0) return slot.id;
    const int32_t id = static_cast<int32_t>(strings_.size());
    strings_.emplace_back(s);
    slot = Slot{hash, id};
    return id;
  }

  /// Returns the id for `s`, or -1 when not interned. Allocation-free.
  int32_t Find(std::string_view s) const {
    if (slots_.empty()) return -1;
    return slots_[Probe(s, Hash(s))].id;
  }

  /// Returns the string for a valid id.
  const std::string& Lookup(int32_t id) const {
    XSACT_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size());
    return strings_[static_cast<size_t>(id)];
  }

  /// Number of interned strings.
  size_t size() const { return strings_.size(); }

  /// Removes every interned string; the table keeps its slots, so a
  /// cleared interner re-fills without regrowing (workspace reuse).
  void Clear() {
    strings_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    int32_t id = -1;  ///< -1: empty
  };

  static uint32_t Hash(std::string_view s) {
    return static_cast<uint32_t>(std::hash<std::string_view>()(s));
  }

  /// Index of the slot holding `s`, or of the empty slot where it would
  /// go. The table is never full (load factor <= 3/4).
  size_t Probe(std::string_view s, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return i;
      if (slot.hash == hash && strings_[static_cast<size_t>(slot.id)] == s) {
        return i;
      }
    }
  }

  /// Doubles the table (power of two, at least 16).
  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, slots_.size() * 2));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id < 0) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].id >= 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::deque<std::string> strings_;  // id -> string; stable addresses
  std::vector<Slot> slots_;          // open addressing, linear probing
};

}  // namespace xsact

#endif  // XSACT_COMMON_INTERNER_H_
