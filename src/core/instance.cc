#include "core/instance.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace xsact::core {

namespace {

/// The paper's predicate: relative occurrences a, b "differ more than x%
/// of the smaller one". A value absent on one side (occurrence 0) differs
/// from any present value. The epsilon keeps the strict comparison stable
/// against floating-point noise (0.55 - 0.5 slightly exceeds 0.05 in
/// binary), so exact-boundary cases are NOT differentiable, as specified.
bool OccurrencesDiffer(double a, double b, double threshold) {
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  constexpr double kEps = 1e-9;
  return (hi - lo) > threshold * lo + kEps;
}

}  // namespace

ComparisonInstance ComparisonInstance::Build(
    std::vector<feature::ResultFeatures> results,
    const feature::FeatureCatalog* catalog, double diff_threshold) {
  XSACT_CHECK(catalog != nullptr);
  XSACT_CHECK(diff_threshold >= 0);
  ComparisonInstance inst;
  inst.results_ = std::move(results);
  inst.catalog_ = catalog;
  inst.diff_threshold_ = diff_threshold;

  const int n = inst.num_results();
  inst.entries_.resize(static_cast<size_t>(n));
  inst.groups_.resize(static_cast<size_t>(n));

  // Entities group in ascending name order. The handful of distinct
  // catalog entities is ranked once per build, so the grouping sort below
  // compares integers, never entity strings.
  std::vector<int32_t> entity_rank(catalog->NumEntities());
  {
    std::vector<int32_t> by_name(catalog->NumEntities());
    std::iota(by_name.begin(), by_name.end(), 0);
    std::sort(by_name.begin(), by_name.end(), [&](int32_t a, int32_t b) {
      return catalog->EntityName(a) < catalog->EntityName(b);
    });
    for (size_t r = 0; r < by_name.size(); ++r) {
      entity_rank[static_cast<size_t>(by_name[r])] = static_cast<int32_t>(r);
    }
  }

  std::vector<int32_t> by_entity;
  std::vector<int32_t> type_rank;  // stats index -> entity rank
  for (int i = 0; i < n; ++i) {
    const feature::ResultFeatures& rf = inst.results_[static_cast<size_t>(i)];
    // Group by entity (ascending name) with the validity order inside each
    // group: one sort on (entity rank, occurrence desc, type id) — type ids
    // are unique, so the key is total and this reproduces the sorted-map
    // bucketing it replaces without per-result map churn.
    type_rank.resize(rf.types().size());
    for (size_t k = 0; k < rf.types().size(); ++k) {
      type_rank[k] = entity_rank[static_cast<size_t>(
          catalog->EntityIdOf(rf.types()[k].type_id))];
    }
    by_entity.resize(rf.types().size());
    std::iota(by_entity.begin(), by_entity.end(), 0);
    std::sort(by_entity.begin(), by_entity.end(),
              [&](int32_t x, int32_t y) {
                const feature::TypeStats& a =
                    rf.types()[static_cast<size_t>(x)];
                const feature::TypeStats& b =
                    rf.types()[static_cast<size_t>(y)];
                const int32_t ea = type_rank[static_cast<size_t>(x)];
                const int32_t eb = type_rank[static_cast<size_t>(y)];
                if (ea != eb) return ea < eb;
                if (a.occurrence != b.occurrence) {
                  return a.occurrence > b.occurrence;
                }
                return a.type_id < b.type_id;
              });
    auto& entries = inst.entries_[static_cast<size_t>(i)];
    auto& groups = inst.groups_[static_cast<size_t>(i)];
    entries.reserve(by_entity.size());
    int32_t group_rank = -1;
    for (const int32_t stats_index : by_entity) {
      const feature::TypeStats& ts =
          rf.types()[static_cast<size_t>(stats_index)];
      if (groups.empty() ||
          type_rank[static_cast<size_t>(stats_index)] != group_rank) {
        group_rank = type_rank[static_cast<size_t>(stats_index)];
        EntityGroup group;
        group.entity = catalog->EntityOf(ts.type_id);
        group.begin = static_cast<int32_t>(entries.size());
        group.end = group.begin;
        groups.push_back(std::move(group));
      }
      Entry e;
      e.type_id = ts.type_id;
      e.dominant_value = ts.DominantValue();
      e.occurrence = ts.occurrence;
      e.dominant_count = ts.values.empty() ? 0 : ts.values.front().count;
      e.cardinality = ts.entity_cardinality;
      e.group = static_cast<int32_t>(groups.size()) - 1;
      e.stats_index = stats_index;
      entries.push_back(e);
      groups.back().end = static_cast<int32_t>(entries.size());
    }
  }

  // Dense-index every type seen anywhere (ascending TypeId — deterministic
  // and binary-searchable), then stamp each entry with its dense type and
  // build the flat [result x type] -> entry table. TypeIds are dense per
  // catalog, so one pass over a catalog-sized array both orders and
  // numbers them — no sort, no search.
  std::vector<int32_t> dense_of(catalog->NumTypes(), -1);
  for (int i = 0; i < n; ++i) {
    for (const Entry& e : inst.entries_[static_cast<size_t>(i)]) {
      XSACT_CHECK(static_cast<size_t>(e.type_id) < dense_of.size());
      dense_of[static_cast<size_t>(e.type_id)] = 0;
    }
  }
  std::vector<feature::TypeId> all_types;
  for (size_t t = 0; t < dense_of.size(); ++t) {
    if (dense_of[t] < 0) continue;
    dense_of[t] = static_cast<int32_t>(all_types.size());
    all_types.push_back(static_cast<feature::TypeId>(t));
  }
  inst.diff_matrix_ = DiffMatrix(std::move(all_types), n);

  const int num_types = inst.diff_matrix_.num_types();
  inst.entry_of_type_.assign(
      static_cast<size_t>(n) * static_cast<size_t>(num_types), -1);
  for (int i = 0; i < n; ++i) {
    auto& entries = inst.entries_[static_cast<size_t>(i)];
    for (size_t k = 0; k < entries.size(); ++k) {
      entries[k].dense_type =
          dense_of[static_cast<size_t>(entries[k].type_id)];
      inst.entry_of_type_[static_cast<size_t>(i) *
                              static_cast<size_t>(num_types) +
                          static_cast<size_t>(entries[k].dense_type)] =
          static_cast<int32_t>(k);
    }
  }

  // Precompute the symmetric differentiability masks per type: for every
  // pair of results carrying the type, evaluate the paper's predicate.
  // Stats are resolved through the entries' stats_index — no hash probes.
  for (int dense = 0; dense < num_types; ++dense) {
    for (int i = 0; i < n; ++i) {
      const int ei = inst.EntryIndexOfDenseType(i, dense);
      if (ei < 0) continue;
      const feature::TypeStats& si =
          inst.results_[static_cast<size_t>(i)].types()[static_cast<size_t>(
              inst.entries_[static_cast<size_t>(i)][static_cast<size_t>(ei)]
                  .stats_index)];
      for (int j = i + 1; j < n; ++j) {
        const int ej = inst.EntryIndexOfDenseType(j, dense);
        if (ej < 0) continue;
        const feature::TypeStats& sj =
            inst.results_[static_cast<size_t>(j)].types()[static_cast<size_t>(
                inst.entries_[static_cast<size_t>(j)][static_cast<size_t>(ej)]
                    .stats_index)];
        if (inst.ComputeDiff(si, sj)) {
          inst.diff_matrix_.Set(dense, i, j);
        }
      }
    }
  }
  return inst;
}

bool ComparisonInstance::ComputeDiff(const feature::TypeStats& si,
                                     const feature::TypeStats& sj) const {
  // The displayed feature of t on each side is its dominant value; the
  // pair is differentiable when EITHER displayed feature's relative
  // occurrences differ across the two results by more than the threshold.
  for (const feature::ValueId v : {si.DominantValue(), sj.DominantValue()}) {
    if (v == feature::kInvalidValueId) continue;
    const double rel_i = si.RelativeOccurrenceOf(v);
    const double rel_j = sj.RelativeOccurrenceOf(v);
    if (OccurrencesDiffer(rel_i, rel_j, diff_threshold_)) return true;
  }
  return false;
}

}  // namespace xsact::core
