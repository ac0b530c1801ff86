#include "feature/catalog.h"

#include "common/macros.h"

namespace xsact::feature {

TypeId FeatureCatalog::InternType(std::string_view entity,
                                  std::string_view attribute) {
  const TypeNames names{entities_.Intern(entity),
                        attributes_.Intern(attribute)};
  const auto [id, inserted] =
      type_ids_.Insert(PairKey(names.entity, names.attribute),
                       static_cast<TypeId>(type_names_.size()));
  if (inserted) type_names_.push_back(names);
  return id;
}

TypeId FeatureCatalog::FindType(std::string_view entity,
                                std::string_view attribute) const {
  // Read-only probes: a sealed catalog inside a cached outcome may be
  // probed by any number of threads.
  const int32_t entity_id = entities_.Find(entity);
  const int32_t attribute_id = attributes_.Find(attribute);
  if (entity_id < 0 || attribute_id < 0) return kInvalidTypeId;
  return type_ids_.Find(PairKey(entity_id, attribute_id));
}

int32_t FeatureCatalog::EntityIdOf(TypeId id) const {
  XSACT_CHECK(id >= 0 && static_cast<size_t>(id) < type_names_.size());
  return type_names_[static_cast<size_t>(id)].entity;
}

const std::string& FeatureCatalog::EntityOf(TypeId id) const {
  return entities_.Lookup(EntityIdOf(id));
}

const std::string& FeatureCatalog::AttributeOf(TypeId id) const {
  XSACT_CHECK(id >= 0 && static_cast<size_t>(id) < type_names_.size());
  return attributes_.Lookup(type_names_[static_cast<size_t>(id)].attribute);
}

std::string FeatureCatalog::TypeName(TypeId id) const {
  return EntityOf(id) + "." + AttributeOf(id);
}

ValueId FeatureCatalog::InternValue(std::string_view value) {
  return values_.Intern(value);
}

uint64_t FeatureCatalog::MemoKey(uint64_t id_space, int32_t high,
                                 int32_t low) {
  XSACT_CHECK(high >= 0 && low >= 0);
  if (id_space != memo_space_) {
    memo_space_ = id_space;
    type_memo_.Clear();
    value_memo_.Clear();
  }
  return PairKey(high, low);
}

ValueId FeatureCatalog::FindValue(std::string_view value) const {
  return values_.Find(value);
}

const std::string& FeatureCatalog::ValueOf(ValueId id) const {
  return values_.Lookup(id);
}

}  // namespace xsact::feature
