#include "feature/extractor.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/flat_map.h"
#include "common/interner.h"
#include "common/string_util.h"
#include "search/search_engine.h"

namespace xsact::feature {

namespace internal {

/// Packed (entity, attribute, value) id key for one observation.
struct ObsKey {
  int32_t entity = 0;
  int32_t attr = 0;
  int32_t value = 0;

  friend bool operator==(const ObsKey& a, const ObsKey& b) {
    return a.entity == b.entity && a.attr == b.attr && a.value == b.value;
  }
};

struct ObsKeyHash {
  size_t operator()(const ObsKey& k) const {
    // splitmix-style mix of the three 32-bit ids.
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.entity)) << 32) |
                 static_cast<uint32_t>(k.attr);
    x ^= static_cast<uint64_t>(static_cast<uint32_t>(k.value)) * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

/// Per-extraction aggregation state, entirely id-based. Observations
/// aggregate under integer (entity, attribute, value) keys in a flat
/// table; the ids come from the document's category index or, where the
/// index cannot serve, from result-local interners. Reused across
/// Extract calls: Reset keeps every capacity, so a warmed workspace
/// aggregates without allocating.
struct ExtractionWorkspace {
  /// Entity ids are DocumentCategoryIndex tag ids on the index sweeps and
  /// `entities` ids on the node walk; `cardinality` is indexed by them.
  StringInterner entities;          // node walk: entity tag -> id
  std::vector<double> cardinality;  // entity id -> instances in the root

  /// Result-local interners of the dynamic-options sweep and node walk.
  StringInterner attrs;   // attribute (or "tag: value") -> local id
  StringInterner values;  // value string -> local id

  struct Obs {
    ObsKey key;
    double count = 0;
  };
  std::vector<Obs> obs;
  FlatIdMap<ObsKey, ObsKeyHash> obs_ids;  // key -> index into obs

  /// Flush scratch. A sort key packs the entity, attribute and value
  /// ranks and the index into obs, 32 bits each from the top, so one
  /// integer compare orders two observations.
  using SortKey = unsigned __int128;
  static SortKey MakeSortKey(uint32_t entity_rank, uint32_t attr_rank,
                             uint32_t value_rank, size_t obs_index) {
    const uint64_t type = static_cast<uint64_t>(entity_rank) << 32 | attr_rank;
    const uint64_t value = static_cast<uint64_t>(value_rank) << 32 |
                           static_cast<uint32_t>(obs_index);
    return static_cast<SortKey>(type) << 64 | value;
  }
  /// The (entity, attribute) half: equal for observations of one type.
  static uint64_t TypeRanks(SortKey key) {
    return static_cast<uint64_t>(key >> 64);
  }
  static size_t ObsIndex(SortKey key) { return static_cast<uint32_t>(key); }
  std::vector<SortKey> order;
  /// One (entity, attribute) run of the sorted order: its type and the
  /// [begin, end) range of its values in run_values.
  struct Run {
    TypeId type = kInvalidTypeId;
    uint32_t begin = 0;
    uint32_t end = 0;
    double cardinality = 1;
  };
  std::vector<Run> runs;
  std::vector<ValueCount> run_values;  // resolved values, in sorted order
  /// Per-root sort ranks of the local interners' strings (LocalIds).
  std::vector<uint32_t> entity_ranks;
  std::vector<uint32_t> attr_ranks;
  std::vector<uint32_t> value_ranks;
  std::vector<int32_t> rank_order;

  std::string text_scratch;  // reused InnerText buffer
  std::string attr_scratch;  // reused "tag: value" composition buffer
  std::string key_scratch;   // reused schema-probe composition buffer

  // Dynamic-options sweep: epoch-stamped memos over the document-level
  // ids of a DocumentCategoryIndex, so resolving a doc tag/text id to its
  // local id costs one array read after its first occurrence per root.
  uint32_t epoch = 0;
  std::vector<uint32_t> attr_epoch;   // doc tag id stamps
  std::vector<int32_t> attr_local;    // doc tag id -> local attr id
  std::vector<uint32_t> value_epoch;  // doc text id stamps
  std::vector<int32_t> value_local;   // doc text id -> local value id / skip
  FlatIdMap<uint64_t, Mix64Hash> multi_local;  // (tag, text) -> attr / skip
  int32_t yes_local = -1;

  /// value_local / multi_local sentinel: the leaf yields no observation.
  static constexpr int32_t kSkip = -2;

  void Reset() {
    entities.Clear();
    attrs.Clear();
    values.Clear();
    cardinality.clear();
    obs.clear();
    obs_ids.Clear();
    if (++epoch == 0) {  // wrap: invalidate every stamp before reuse
      std::fill(attr_epoch.begin(), attr_epoch.end(), 0);
      std::fill(value_epoch.begin(), value_epoch.end(), 0);
      epoch = 1;
    }
    multi_local.Clear();
    yes_local = -1;
  }

  void Record(int32_t entity, int32_t attr, int32_t value) {
    const ObsKey key{entity, attr, value};
    const auto [index, inserted] =
        obs_ids.Insert(key, static_cast<int32_t>(obs.size()));
    if (inserted) obs.push_back(Obs{key, 0});
    obs[static_cast<size_t>(index)].count += 1;
  }
};

}  // namespace internal

namespace {

using internal::ExtractionWorkspace;
using internal::ObsKey;

/// Computes a leaf's observation value (trimmed, case-folded, truncated
/// per options) into state->text_scratch. Returns false when the leaf
/// yields no observation.
bool LeafValue(const xml::Node& node, const ExtractorOptions& options,
               ExtractionWorkspace* state, std::string_view* out) {
  std::string_view value = node.InnerTextView(&state->text_scratch);
  if (value.empty() && options.skip_empty_values) return false;
  if (options.fold_value_case) {
    const size_t begin =
        static_cast<size_t>(value.data() - state->text_scratch.data());
    FoldCase(&state->text_scratch, begin, begin + value.size());
  }
  if (value.size() > options.max_value_length) {
    value = value.substr(0, options.max_value_length);
  }
  *out = value;
  return true;
}

/// ranks[id] = position of strings.Lookup(id) in byte-wise sorted order.
void RankStrings(const StringInterner& strings, std::vector<int32_t>* order,
                 std::vector<uint32_t>* ranks) {
  order->resize(strings.size());
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    return strings.Lookup(a) < strings.Lookup(b);
  });
  ranks->resize(strings.size());
  for (size_t i = 0; i < order->size(); ++i) {
    (*ranks)[static_cast<size_t>((*order)[i])] = static_cast<uint32_t>(i);
  }
}

/// Observation ids of the precomputed sweep: every id is document-level,
/// so ranks come from the index and catalog interning is memoized on the
/// ids themselves.
struct IndexIds {
  const entity::DocumentCategoryIndex& index;

  uint32_t EntityRank(int32_t tag) const { return index.tag_rank(tag); }
  uint32_t AttrRank(int32_t attr) const { return index.obs_attr_rank(attr); }
  uint32_t ValueRank(int32_t value) const {
    return index.obs_value_rank(value);
  }
  TypeId Type(FeatureCatalog* catalog, int32_t tag, int32_t attr) const {
    return catalog->InternType(index.id_space(), tag, attr, [&] {
      return std::pair<std::string_view, std::string_view>(
          index.tag(tag), index.obs_attr(attr));
    });
  }
  ValueId Value(FeatureCatalog* catalog, int32_t value) const {
    return catalog->InternValue(index.id_space(), value, [&] {
      return std::string_view(index.obs_value(value));
    });
  }
};

/// Observation ids of the dynamic-options sweep (`index` set: entities
/// are its tag ids) and of the node walk (`index` null: entities are
/// workspace ids). Attributes and values are result-local ids whose
/// strings are ranked once, here, per root.
struct LocalIds {
  ExtractionWorkspace& state;
  const entity::DocumentCategoryIndex* index;

  LocalIds(ExtractionWorkspace& s, const entity::DocumentCategoryIndex* i)
      : state(s), index(i) {
    if (index == nullptr) {
      RankStrings(state.entities, &state.rank_order, &state.entity_ranks);
    }
    RankStrings(state.attrs, &state.rank_order, &state.attr_ranks);
    RankStrings(state.values, &state.rank_order, &state.value_ranks);
  }

  uint32_t EntityRank(int32_t entity) const {
    return index != nullptr ? index->tag_rank(entity)
                            : state.entity_ranks[static_cast<size_t>(entity)];
  }
  uint32_t AttrRank(int32_t attr) const {
    return state.attr_ranks[static_cast<size_t>(attr)];
  }
  uint32_t ValueRank(int32_t value) const {
    return state.value_ranks[static_cast<size_t>(value)];
  }
  TypeId Type(FeatureCatalog* catalog, int32_t entity, int32_t attr) const {
    return catalog->InternType(
        index != nullptr ? index->tag(entity) : state.entities.Lookup(entity),
        state.attrs.Lookup(attr));
  }
  ValueId Value(FeatureCatalog* catalog, int32_t value) const {
    return catalog->InternValue(state.values.Lookup(value));
  }
};

/// Flushes the aggregated observations in sorted (entity, attribute,
/// value) string order — the exact interning order of the
/// std::map<tuple> aggregation this replaces, so catalog id assignment
/// (and every downstream tie-break) is unchanged. The order is taken on
/// packed integer sort ranks (`ids`), never on the strings; the catalog
/// is asked for a type once per (entity, attribute) run.
template <typename Ids>
ResultFeatures Flush(ExtractionWorkspace& state, const xml::Node& result_root,
                     FeatureCatalog* catalog, const Ids& ids) {
  using W = ExtractionWorkspace;
  std::vector<W::SortKey>& order = state.order;
  order.resize(state.obs.size());
  for (size_t i = 0; i < state.obs.size(); ++i) {
    const ObsKey& key = state.obs[i].key;
    order[i] = W::MakeSortKey(ids.EntityRank(key.entity),
                              ids.AttrRank(key.attr),
                              ids.ValueRank(key.value), i);
  }
  std::sort(order.begin(), order.end());

  // Sorted keys put each (entity, attribute) pair's observations in one
  // run of distinct values: one catalog type lookup per run. Runs are then
  // added in TypeId order, so the result's type list is filled by appends
  // into one exact allocation.
  std::vector<ValueCount>& values = state.run_values;
  std::vector<W::Run>& runs = state.runs;
  values.resize(order.size());
  runs.clear();
  for (size_t begin = 0; begin < order.size();) {
    const ObsKey& first = state.obs[W::ObsIndex(order[begin])].key;
    W::Run run;
    run.type = ids.Type(catalog, first.entity, first.attr);
    run.begin = static_cast<uint32_t>(begin);
    size_t end = begin;
    for (; end < order.size() &&
           W::TypeRanks(order[end]) == W::TypeRanks(order[begin]);
         ++end) {
      const W::Obs& o = state.obs[W::ObsIndex(order[end])];
      values[end] = ValueCount{ids.Value(catalog, o.key.value), o.count};
    }
    run.end = static_cast<uint32_t>(end);
    const double cardinality =
        state.cardinality[static_cast<size_t>(first.entity)];
    run.cardinality = cardinality > 0 ? cardinality : 1;
    runs.push_back(run);
    begin = end;
  }
  std::sort(runs.begin(), runs.end(), [](const W::Run& a, const W::Run& b) {
    return a.type < b.type;
  });

  ResultFeatures features;
  features.set_label(search::InferTitle(result_root));
  features.ReserveTypes(runs.size());
  for (const W::Run& run : runs) {
    features.AddType(run.type, run.cardinality, values.data() + run.begin,
                     run.end - run.begin);
  }
  features.Seal();
  return features;
}

/// Sweeps the contiguous pre-order range of `root_id`'s subtree reading
/// the index's flat per-node columns: counts entity instances into
/// state.cardinality (by tag id) and hands every leaf element to
/// `leaf(id, category, owner_tag)`, where owner_tag is the tag id of its
/// owning entity within the root. No pointer stack, schema probe or
/// ancestor climb; consecutive leaves usually share their owner, so its
/// tag is memoized.
template <typename Leaf>
void SweepSubtree(const xml::NodeTable& table,
                  const entity::DocumentCategoryIndex& index,
                  xml::NodeId root_id, const Cancellation& cancel,
                  ExtractionWorkspace& state, Leaf&& leaf) {
  const bool expirable = cancel.can_expire();
  state.cardinality.assign(index.num_tags(), 0);
  const xml::NodeId end = table.subtree_end(root_id);
  xml::NodeId memo_owner = xml::kInvalidNodeId;
  int32_t owner_tag = -1;
  for (xml::NodeId id = root_id; id < end; ++id) {
    // Partial output on expiry; callers with an expirable token discard it.
    if (expirable && ((id - root_id) & 4095) == 0 && cancel.Expired()) break;
    const entity::NodeCategory category = index.category(id);
    if (category == entity::NodeCategory::kValue) continue;  // text node
    if (id == root_id) {
      state.cardinality[static_cast<size_t>(index.tag_id(id))] += 1;
      continue;  // a bare leaf result has no features
    }
    if (category == entity::NodeCategory::kEntity) {
      state.cardinality[static_cast<size_t>(index.tag_id(id))] += 1;
    }
    if (!index.is_leaf_element(id)) continue;
    const xml::NodeId owner_id = index.OwnerWithin(id, root_id);
    if (owner_id != memo_owner) {
      memo_owner = owner_id;
      owner_tag = index.tag_id(owner_id);
    }
    leaf(id, category, owner_tag);
  }
}

}  // namespace

ExtractionScratch::ExtractionScratch()
    : impl_(std::make_unique<internal::ExtractionWorkspace>()) {}
ExtractionScratch::~ExtractionScratch() = default;
ExtractionScratch::ExtractionScratch(ExtractionScratch&&) noexcept = default;
ExtractionScratch& ExtractionScratch::operator=(ExtractionScratch&&) noexcept =
    default;

FeatureExtractor::FeatureExtractor(ExtractorOptions options)
    : options_(options) {}

ResultFeatures FeatureExtractor::Extract(const xml::Node& result_root,
                                         const entity::EntitySchema& schema,
                                         FeatureCatalog* catalog) const {
  ExtractionScratch scratch;
  return Extract(result_root, schema, catalog, &scratch);
}

ResultFeatures FeatureExtractor::Extract(
    const xml::NodeTable& table, const entity::DocumentCategoryIndex& index,
    xml::NodeId root_id, FeatureCatalog* catalog) const {
  ExtractionScratch scratch;
  return Extract(table, index, root_id, catalog, &scratch);
}

ResultFeatures FeatureExtractor::Extract(const xml::Node& result_root,
                                         const entity::EntitySchema& schema,
                                         FeatureCatalog* catalog,
                                         ExtractionScratch* scratch,
                                         const Cancellation& cancel) const {
  ExtractionWorkspace& state = *scratch->impl_;
  state.Reset();
  const bool expirable = cancel.can_expire();
  uint32_t tick = 0;

  // Entity ids on the walk are `state.entities` ids.
  auto entity_of = [&](const xml::Node& node) {
    const int32_t id = state.entities.Intern(node.tag());
    if (static_cast<size_t>(id) >= state.cardinality.size()) {
      state.cardinality.resize(static_cast<size_t>(id) + 1, 0);
    }
    return id;
  };

  // One non-recursive walk that does everything the seed spread over two
  // passes and per-leaf ancestor climbs: counts entity instances, records
  // leaf observations, and carries each node's owning entity down the
  // stack (owner = nearest entity ancestor-or-self, the result root when
  // none) so OwningEntity never re-walks parents. One schema probe per
  // element.
  struct Item {
    const xml::Node* node;
    const xml::Node* parent_owner;
  };
  std::vector<Item> stack = {{&result_root, &result_root}};
  while (!stack.empty()) {
    // Partial output on expiry; callers with an expirable token discard it.
    if (expirable && (++tick & 1023u) == 0 && cancel.Expired()) break;
    const Item item = stack.back();
    stack.pop_back();
    const xml::Node* node = item.node;

    entity::NodeCategory category = entity::NodeCategory::kConnection;
    const xml::Node* owner = &result_root;
    if (node == &result_root) {
      state.cardinality[static_cast<size_t>(entity_of(*node))] += 1;
    } else {
      category = schema.CategoryOf(*node, &state.key_scratch);
      if (category == entity::NodeCategory::kEntity) {
        owner = node;
        state.cardinality[static_cast<size_t>(entity_of(*node))] += 1;
      } else {
        owner = item.parent_owner;
      }
    }

    bool has_element_child = false;
    for (const xml::Node* child : node->children()) {
      if (child->is_element()) {
        stack.push_back(Item{child, owner});
        has_element_child = true;
      }
    }
    if (has_element_child || node == &result_root) continue;

    std::string_view value;
    if (!LeafValue(*node, options_, &state, &value)) continue;
    const int32_t entity = entity_of(*owner);
    if (category == entity::NodeCategory::kMultiAttribute) {
      // Value-qualified type, boolean feature: (review, "pro: compact", yes).
      state.attr_scratch.assign(node->tag());
      state.attr_scratch.append(": ");
      state.attr_scratch.append(value);
      state.Record(entity, state.attrs.Intern(state.attr_scratch),
                   state.values.Intern("yes"));
    } else {
      // Plain attribute: (product, "rating", "4.2").
      state.Record(entity, state.attrs.Intern(node->tag()),
                   state.values.Intern(value));
    }
  }

  return Flush(state, result_root, catalog, LocalIds(state, nullptr));
}

ResultFeatures FeatureExtractor::Extract(
    const xml::NodeTable& table, const entity::DocumentCategoryIndex& index,
    xml::NodeId root_id, FeatureCatalog* catalog, ExtractionScratch* scratch,
    const Cancellation& cancel) const {
  ExtractionWorkspace& state = *scratch->impl_;
  state.Reset();

  // Fast mode: the extractor's options match the encoding the index was
  // built with, so every leaf's (attribute, value) pair is already a
  // document-level id pair — the sweep does no string processing at all,
  // and neither does the flush.
  const entity::LeafValueOptions& lv = index.leaf_value_options();
  if (options_.fold_value_case == lv.fold_value_case &&
      options_.max_value_length == lv.max_value_length &&
      options_.skip_empty_values == lv.skip_empty_values) {
    SweepSubtree(table, index, root_id, cancel, state,
                 [&](xml::NodeId id, entity::NodeCategory, int32_t owner_tag) {
                   const int32_t attr = index.obs_attr_id(id);
                   if (attr < 0) return;  // skipped (empty value)
                   state.Record(owner_tag, attr, index.obs_value_id(id));
                 });
    return Flush(state, *table.node(root_id), catalog, IndexIds{index});
  }

  // Dynamic mode (options differ from the precomputed encoding):
  // processes a doc text id into the local value id (fold / truncate per
  // options), or kSkip; memoized so repeated values do no string work.
  const uint32_t epoch = state.epoch;
  state.attr_epoch.resize(index.num_tags(), 0);
  state.attr_local.resize(index.num_tags(), -1);
  state.value_epoch.resize(index.num_texts(), 0);
  state.value_local.resize(index.num_texts(), -1);
  auto value_of_text = [&](int32_t text) {
    if (state.value_epoch[static_cast<size_t>(text)] != epoch) {
      state.value_epoch[static_cast<size_t>(text)] = epoch;
      const std::string& raw = index.text(text);
      if (raw.empty() && options_.skip_empty_values) {
        state.value_local[static_cast<size_t>(text)] =
            ExtractionWorkspace::kSkip;
      } else {
        std::string_view value = raw;
        if (options_.fold_value_case) {
          state.text_scratch.assign(raw);
          FoldCase(&state.text_scratch, 0, state.text_scratch.size());
          value = state.text_scratch;
        }
        if (value.size() > options_.max_value_length) {
          value = value.substr(0, options_.max_value_length);
        }
        state.value_local[static_cast<size_t>(text)] =
            state.values.Intern(value);
      }
    }
    return state.value_local[static_cast<size_t>(text)];
  };

  // String work happens only on each distinct (tag, text) first
  // occurrence per root.
  SweepSubtree(
      table, index, root_id, cancel, state,
      [&](xml::NodeId id, entity::NodeCategory category, int32_t owner_tag) {
        const int32_t tag = index.tag_id(id);
        const int32_t text = index.text_id(id);
        if (category == entity::NodeCategory::kMultiAttribute) {
          // Value-qualified type: attr = "tag: value", value = "yes"; the
          // composed attribute is memoized per (tag, text) pair.
          const uint64_t key =
              (static_cast<uint64_t>(static_cast<uint32_t>(tag)) << 32) |
              static_cast<uint32_t>(text);
          int32_t attr = state.multi_local.Find(key);
          if (attr == -1) {
            const int32_t value = value_of_text(text);
            if (value == ExtractionWorkspace::kSkip) {
              attr = ExtractionWorkspace::kSkip;
            } else {
              state.attr_scratch.assign(index.tag(tag));
              state.attr_scratch.append(": ");
              state.attr_scratch.append(state.values.Lookup(value));
              attr = state.attrs.Intern(state.attr_scratch);
            }
            state.multi_local.Insert(key, attr);
          }
          if (attr == ExtractionWorkspace::kSkip) return;
          if (state.yes_local < 0) state.yes_local = state.values.Intern("yes");
          state.Record(owner_tag, attr, state.yes_local);
        } else {
          const int32_t value = value_of_text(text);
          if (value == ExtractionWorkspace::kSkip) return;
          if (state.attr_epoch[static_cast<size_t>(tag)] != epoch) {
            state.attr_epoch[static_cast<size_t>(tag)] = epoch;
            state.attr_local[static_cast<size_t>(tag)] =
                state.attrs.Intern(index.tag(tag));
          }
          state.Record(owner_tag, state.attr_local[static_cast<size_t>(tag)],
                       value);
        }
      });
  return Flush(state, *table.node(root_id), catalog, LocalIds(state, &index));
}

}  // namespace xsact::feature
