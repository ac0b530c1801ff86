#include "feature/result_features.h"

#include <algorithm>

#include "common/macros.h"

namespace xsact::feature {

namespace {

bool TypeIdLess(const TypeStats& stats, TypeId type) {
  return stats.type_id < type;
}

}  // namespace

std::vector<TypeStats>::iterator ResultFeatures::LowerBound(TypeId type) {
  if (types_.empty() || types_.back().type_id < type) return types_.end();
  if (types_.back().type_id == type) return types_.end() - 1;
  return std::lower_bound(types_.begin(), types_.end(), type, TypeIdLess);
}

void ResultFeatures::AddObservation(TypeId type, ValueId value, double count,
                                    double cardinality) {
  XSACT_CHECK(!sealed_);
  XSACT_CHECK(type >= 0 && value >= 0 && count >= 0);
  auto it = LowerBound(type);
  if (it == types_.end() || it->type_id != type) {
    it = types_.insert(it, TypeStats{});
    it->type_id = type;
  }
  TypeStats& stats = *it;
  stats.occurrence += count;
  stats.entity_cardinality = std::max(stats.entity_cardinality, cardinality);
  for (ValueCount& vc : stats.values) {
    if (vc.value_id == value) {
      vc.count += count;
      return;
    }
  }
  stats.values.push_back(ValueCount{value, count});
}

void ResultFeatures::AddType(TypeId type, double cardinality,
                             const ValueCount* values, size_t n) {
  XSACT_CHECK(!sealed_);
  XSACT_CHECK(type >= 0);
  auto it = LowerBound(type);
  XSACT_CHECK(it == types_.end() || it->type_id != type);
  it = types_.insert(it, TypeStats{});
  it->type_id = type;
  it->entity_cardinality = std::max(it->entity_cardinality, cardinality);
  it->values.assign(values, values + n);
  for (const ValueCount& vc : it->values) {
    XSACT_CHECK(vc.value_id >= 0 && vc.count >= 0);
    it->occurrence += vc.count;
  }
}

void ResultFeatures::Seal() {
  XSACT_CHECK(!sealed_);
  for (TypeStats& stats : types_) {
    std::sort(stats.values.begin(), stats.values.end(),
              [](const ValueCount& a, const ValueCount& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.value_id < b.value_id;
              });
  }
  sealed_ = true;
}

const TypeStats* ResultFeatures::Find(TypeId type) const {
  const auto it =
      std::lower_bound(types_.begin(), types_.end(), type, TypeIdLess);
  return it != types_.end() && it->type_id == type ? &*it : nullptr;
}

size_t ResultFeatures::NumFeatures() const {
  size_t n = 0;
  for (const TypeStats& t : types_) n += t.values.size();
  return n;
}

}  // namespace xsact::feature
