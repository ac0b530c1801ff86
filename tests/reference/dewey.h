// Dewey identifiers: hierarchical node labels, kept as a test and bench
// oracle.
//
// A Dewey id is the path of child indices from the root ("0.2.5"). The
// serving path never stores one: SLCA/ELCA kernels work on pre-order
// NodeIds with parent links and subtree extents (see search/slca.h).
// Equivalence suites and the frozen seed baselines still compare or
// consume Dewey labels, so this library derives them from a NodeTable
// on demand (DeweyLabels).
//
// Storage is a small inline buffer (12 components — deeper than any of
// the demo corpora) with a heap spill for pathological depths.

#ifndef XSACT_TESTS_REFERENCE_DEWEY_H_
#define XSACT_TESTS_REFERENCE_DEWEY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "xml/path.h"

namespace xsact::reference {

/// Hierarchical node label; lexicographic order == document pre-order.
class DeweyId {
 public:
  DeweyId() = default;

  explicit DeweyId(const std::vector<int32_t>& components) {
    Assign(components.data(), components.size());
  }

  /// Copies the first `size` components of `data`.
  DeweyId(const int32_t* data, size_t size) { Assign(data, size); }

  DeweyId(const DeweyId& other) { Assign(other.data_, other.size_); }

  DeweyId(DeweyId&& other) noexcept { StealFrom(other); }

  DeweyId& operator=(const DeweyId& other) {
    if (this != &other) {
      FreeHeap();
      data_ = inline_;
      capacity_ = kInlineCapacity;
      Assign(other.data_, other.size_);
    }
    return *this;
  }

  DeweyId& operator=(DeweyId&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      StealFrom(other);
    }
    return *this;
  }

  ~DeweyId() { FreeHeap(); }

  size_t depth() const { return size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int32_t operator[](size_t i) const { return data_[i]; }
  int32_t back() const { return data_[size_ - 1]; }
  const int32_t* begin() const { return data_; }
  const int32_t* end() const { return data_ + size_; }

  /// The components as a vector (copy; diagnostics / tests).
  std::vector<int32_t> components() const {
    return std::vector<int32_t>(begin(), end());
  }

  /// Appends one component (descend to child `index`).
  void Push(int32_t index) {
    if (size_ == capacity_) Grow();
    data_[size_++] = index;
  }

  /// Removes the last component (ascend to parent).
  void Pop() { --size_; }

  /// The parent label (empty for the root).
  DeweyId Parent() const {
    DeweyId p = *this;
    if (!p.empty()) p.Pop();
    return p;
  }

  /// True iff `this` is an ancestor of (or equal to) `other`.
  bool IsAncestorOrSelf(const DeweyId& other) const {
    if (size_ > other.size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }

  /// True iff `this` is a strict ancestor of `other`.
  bool IsAncestorOf(const DeweyId& other) const {
    return size_ < other.size_ && IsAncestorOrSelf(other);
  }

  /// Lowest common ancestor of two labels.
  static DeweyId Lca(const DeweyId& a, const DeweyId& b) {
    size_t n = std::min(a.size_, b.size_);
    size_t i = 0;
    while (i < n && a.data_[i] == b.data_[i]) ++i;
    return DeweyId(a.data_, i);
  }

  /// Dotted rendering, e.g. "0.2.5"; the root is "ε".
  std::string ToString() const;

  friend bool operator==(const DeweyId& a, const DeweyId& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.data_, b.data_, a.size_ * sizeof(int32_t)) == 0;
  }

  /// Document (pre-order) comparison: prefix sorts before extension.
  friend bool operator<(const DeweyId& a, const DeweyId& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
  friend bool operator<=(const DeweyId& a, const DeweyId& b) {
    return a == b || a < b;
  }

 private:
  static constexpr uint32_t kInlineCapacity = 12;

  void Assign(const int32_t* data, size_t size) {
    if (size > capacity_) {
      FreeHeap();
      capacity_ = static_cast<uint32_t>(size);
      data_ = new int32_t[capacity_];
    }
    size_ = static_cast<uint32_t>(size);
    // The size guard keeps memcpy away from a null source (an empty
    // vector's data() — the root label's path — may be nullptr).
    if (size > 0) std::memcpy(data_, data, size * sizeof(int32_t));
  }

  void StealFrom(DeweyId& other) noexcept {
    size_ = other.size_;
    if (other.data_ == other.inline_) {
      data_ = inline_;
      capacity_ = kInlineCapacity;
      std::memcpy(inline_, other.inline_, size_ * sizeof(int32_t));
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineCapacity;
    }
    other.size_ = 0;
  }

  void FreeHeap() {
    if (data_ != inline_) delete[] data_;
  }

  void Grow() {
    const uint32_t new_capacity = capacity_ * 2;
    int32_t* grown = new int32_t[new_capacity];
    std::memcpy(grown, data_, size_ * sizeof(int32_t));
    FreeHeap();
    data_ = grown;
    capacity_ = new_capacity;
  }

  int32_t* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  int32_t inline_[kInlineCapacity];
};

/// The Dewey label of every node of `table`, indexed by NodeId. One
/// linear pass: a node's label is its parent's plus its ordinal among
/// the parent's children, which appear in increasing pre-order id.
std::vector<DeweyId> DeweyLabels(const xml::NodeTable& table);

/// Id of the node whose label in `labels` (pre-order, as returned by
/// DeweyLabels) is exactly `dewey`, or kInvalidNodeId.
xml::NodeId FindByDewey(const std::vector<DeweyId>& labels,
                        const DeweyId& dewey);

}  // namespace xsact::reference

#endif  // XSACT_TESTS_REFERENCE_DEWEY_H_
