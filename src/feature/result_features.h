// ResultFeatures: the complete feature statistics of one search result.

#ifndef XSACT_FEATURE_RESULT_FEATURES_H_
#define XSACT_FEATURE_RESULT_FEATURES_H_

#include <string>
#include <string_view>
#include <vector>

#include "feature/catalog.h"
#include "feature/feature.h"

namespace xsact::feature {

/// All feature statistics of one result. Produced by the extractor (or
/// built programmatically in tests/benchmarks), consumed by the DFS core.
class ResultFeatures {
 public:
  /// Display label for the result (e.g. the product name).
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Adds `count` occurrences of (type, value); merges with an existing
  /// entry for the same pair. `cardinality` is the owning entity's
  /// instance count (kept as the max reported for the type). Types are
  /// kept sorted by id as they arrive (a binary search; adding at or
  /// above the last type is O(1)).
  void AddObservation(TypeId type, ValueId value, double count,
                      double cardinality);

  /// Reserves room for `n` types.
  void ReserveTypes(size_t n) { types_.reserve(n); }

  /// Bulk form of AddObservation for a type not yet present: adds `type`
  /// with `n` observations of DISTINCT values (any order) in one step,
  /// sizing its value list once. Same statistics as n AddObservation calls;
  /// adding types in ascending id order appends.
  void AddType(TypeId type, double cardinality, const ValueCount* values,
               size_t n);

  /// Finalizes value orderings (count desc, id asc). Must be called after
  /// the last AddObservation and before statistics are read.
  void Seal();

  /// Stats for a type, or nullptr when the type is absent in this result.
  /// A binary search over types().
  const TypeStats* Find(TypeId type) const;

  /// True iff the type occurs in this result.
  bool HasType(TypeId type) const { return Find(type) != nullptr; }

  /// All types present, sorted by type id.
  const std::vector<TypeStats>& types() const { return types_; }

  /// Number of distinct feature types.
  size_t NumTypes() const { return types_.size(); }

  /// Total number of (type, value) features.
  size_t NumFeatures() const;

 private:
  /// Position of `type` in types_, or where it belongs; O(1) when `type`
  /// is at or above the last type.
  std::vector<TypeStats>::iterator LowerBound(TypeId type);

  std::string label_;
  std::vector<TypeStats> types_;  // sorted by type_id
  bool sealed_ = false;
};

}  // namespace xsact::feature

#endif  // XSACT_FEATURE_RESULT_FEATURES_H_
