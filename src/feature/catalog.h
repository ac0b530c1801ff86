// FeatureCatalog: interns feature types and values across a result set.
//
// All results being compared share one catalog so that equality of types
// and values is integer equality, and so that tie-breaking (by id) is
// deterministic across runs.

#ifndef XSACT_FEATURE_CATALOG_H_
#define XSACT_FEATURE_CATALOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/interner.h"
#include "feature/feature.h"

namespace xsact::feature {

/// Interner for (entity, attribute) feature types and value strings.
class FeatureCatalog {
 public:
  /// Interns a feature type; idempotent.
  TypeId InternType(std::string_view entity, std::string_view attribute);

  /// Interns a feature type named by a caller's integer ids: `entity_id`
  /// and `attr_id` must denote the strings `names()` returns (an {entity,
  /// attribute} pair of string_views) in the id space tagged `id_space`
  /// (DocumentCategoryIndex::id_space()). The result is memoized on the
  /// ids: a repeat costs one integer probe, and `names` is called only on
  /// the first use, so no string is read, composed or hashed again.
  /// Interning through another id space drops the memo. Same ids as the
  /// string overload.
  template <typename Names>
  TypeId InternType(uint64_t id_space, int32_t entity_id, int32_t attr_id,
                    const Names& names) {
    const uint64_t key = MemoKey(id_space, entity_id, attr_id);
    const int32_t memo = type_memo_.Find(key);
    if (memo >= 0) return memo;
    const auto [entity, attribute] = names();
    const TypeId id = InternType(entity, attribute);
    type_memo_.Insert(key, id);
    return id;
  }

  /// Looks up a type id, or kInvalidTypeId when never interned.
  TypeId FindType(std::string_view entity, std::string_view attribute) const;

  /// Entity half of a type ("review" of "(review, pro: compact)").
  const std::string& EntityOf(TypeId id) const;

  /// Dense id of the entity half of a type (ids follow first interning;
  /// EntityName maps them back). Lets callers group types by entity on
  /// integers.
  int32_t EntityIdOf(TypeId id) const;
  const std::string& EntityName(int32_t entity_id) const {
    return entities_.Lookup(entity_id);
  }
  size_t NumEntities() const { return entities_.size(); }

  /// Attribute half of a type ("pro: compact").
  const std::string& AttributeOf(TypeId id) const;

  /// Pretty "entity.attribute" rendering for display.
  std::string TypeName(TypeId id) const;

  /// Interns / looks up a value string.
  ValueId InternValue(std::string_view value);
  /// Memoized as the id-keyed InternType: `value_id` denotes the string
  /// `value()` returns in the id space tagged `id_space`.
  template <typename Value>
  ValueId InternValue(uint64_t id_space, int32_t value_id,
                      const Value& value) {
    const uint64_t key = MemoKey(id_space, 0, value_id);
    const int32_t memo = value_memo_.Find(key);
    if (memo >= 0) return memo;
    const ValueId id = InternValue(value());
    value_memo_.Insert(key, id);
    return id;
  }
  ValueId FindValue(std::string_view value) const;
  const std::string& ValueOf(ValueId id) const;

  size_t NumTypes() const { return type_names_.size(); }
  size_t NumValues() const { return values_.size(); }

 private:
  /// Packs two non-negative ids into a memo key, first dropping the memos
  /// when `id_space` differs from the memoized one.
  uint64_t MemoKey(uint64_t id_space, int32_t high, int32_t low);

  /// (entity id, attribute id) packed into one key.
  static uint64_t PairKey(int32_t high, int32_t low) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(high)) << 32) |
           static_cast<uint32_t>(low);
  }

  // A catalog is per-comparison state: one writer during extraction,
  // read-only — and then safely shared — once the outcome is built.
  StringInterner entities_;    // entity name -> entity id
  StringInterner attributes_;  // attribute name -> attribute id
  struct TypeNames {
    int32_t entity = -1;
    int32_t attribute = -1;
  };
  std::vector<TypeNames> type_names_;         // TypeId -> name ids
  FlatIdMap<uint64_t, Mix64Hash> type_ids_;  // PairKey(names) -> TypeId
  StringInterner values_;
  /// Id-keyed memos of the current id space: PairKey(entity id, attr id)
  /// -> TypeId and value id -> ValueId.
  uint64_t memo_space_ = 0;
  FlatIdMap<uint64_t, Mix64Hash> type_memo_;
  FlatIdMap<uint64_t, Mix64Hash> value_memo_;
};

}  // namespace xsact::feature

#endif  // XSACT_FEATURE_CATALOG_H_
