#include "feature/extractor.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/interner.h"
#include "common/string_util.h"
#include "search/search_engine.h"

namespace xsact::feature {

namespace internal {

/// Packed (entity, attribute, value) local-id key for one observation.
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

/// Per-extraction aggregation state, entirely id-based: entity tags,
/// attribute names (possibly value-qualified) and values are interned
/// into result-local ids during the walk, and observations aggregate
/// under integer keys — no per-observation string tuples. Reused across
/// Extract calls (Reset keeps capacity) so per-result extraction does not
/// rebuild its hash tables from scratch.
struct ExtractionWorkspace {
  StringInterner entities;  // entity tag -> local id
  StringInterner attrs;     // attribute (or "tag: value") -> local id
  StringInterner values;    // value string -> local id

  std::vector<double> cardinality;  // local entity id -> instance count

  struct Obs {
    ObsKey key;
    double count = 0;
  };
  std::vector<Obs> obs;
  std::unordered_map<ObsKey, int32_t, ObsKeyHash> obs_ids;

  std::string text_scratch;  // reused InnerText buffer
  std::string attr_scratch;  // reused "tag: value" composition buffer
  std::string key_scratch;   // reused schema-probe composition buffer
  std::vector<int32_t> order;  // reused flush ordering buffer

  // Epoch-stamped memos over the document-level ids of a
  // DocumentCategoryIndex: resolving a doc tag/text id to its local id
  // costs one array read after the first occurrence per extraction.
  uint32_t epoch = 0;
  std::vector<uint32_t> attr_epoch;    // doc tag id stamps
  std::vector<int32_t> attr_local;     // doc tag id -> local attr id
  std::vector<uint32_t> entity_epoch;  // doc tag id stamps
  std::vector<int32_t> entity_local;   // doc tag id -> local entity id
  std::vector<uint32_t> value_epoch;   // doc text id stamps
  std::vector<int32_t> value_local;    // doc text id -> local value id / skip
  std::unordered_map<uint64_t, int32_t> multi_local;  // (tag,text) -> attr
  int32_t yes_local = -1;

  /// value_local sentinel: the leaf yields no observation.
  static constexpr int32_t kSkip = -2;

  void Reset() {
    entities.Clear();
    attrs.Clear();
    values.Clear();
    cardinality.clear();
    obs.clear();
    obs_ids.clear();
    if (++epoch == 0) {  // wrap: invalidate every stamp before reuse
      std::fill(attr_epoch.begin(), attr_epoch.end(), 0);
      std::fill(entity_epoch.begin(), entity_epoch.end(), 0);
      std::fill(value_epoch.begin(), value_epoch.end(), 0);
      epoch = 1;
    }
    multi_local.clear();
    yes_local = -1;
  }

  int32_t InternEntity(std::string_view tag) {
    const int32_t id = entities.Intern(tag);
    if (static_cast<size_t>(id) >= cardinality.size()) {
      cardinality.resize(static_cast<size_t>(id) + 1, 0);
    }
    return id;
  }

  void CountEntity(std::string_view tag) {
    cardinality[static_cast<size_t>(InternEntity(tag))] += 1;
  }

  void Record(int32_t entity, int32_t attr, int32_t value) {
    const ObsKey key{entity, attr, value};
    const auto it = obs_ids.emplace(key, static_cast<int32_t>(obs.size()));
    if (it.second) obs.push_back(Obs{key, 0});
    obs[static_cast<size_t>(it.first->second)].count += 1;
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

/// Records one leaf observation under its owning entity.
void RecordLeaf(const xml::Node& node, entity::NodeCategory category,
                int32_t entity_id, std::string_view value,
                ExtractionWorkspace* state) {
  if (category == entity::NodeCategory::kMultiAttribute) {
    // Value-qualified type, boolean feature: (review, "pro: compact", yes).
    state->attr_scratch.assign(node.tag());
    state->attr_scratch.append(": ");
    state->attr_scratch.append(value);
    state->Record(entity_id, state->attrs.Intern(state->attr_scratch),
                  state->values.Intern("yes"));
  } else {
    // Plain attribute: (product, "rating", "4.2").
    state->Record(entity_id, state->attrs.Intern(node.tag()),
                  state->values.Intern(value));
  }
}

/// Flushes the aggregated observations in sorted (entity, attribute,
/// value) string order — the exact interning order of the
/// std::map<tuple> aggregation this replaces, so catalog id assignment
/// (and every downstream tie-break) is unchanged. Attribute and value
/// strings resolve through the caller's views (local interners, or the
/// document index's precomputed encoding); distinct ids within one id
/// space always denote distinct strings, so string compares are only
/// needed when ids differ.
template <typename AttrView, typename ValueView>
ResultFeatures Flush(ExtractionWorkspace& state, const xml::Node& result_root,
                     FeatureCatalog* catalog, AttrView&& attr_view,
                     ValueView&& value_view) {
  std::vector<int32_t>& order = state.order;
  order.resize(state.obs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    const ObsKey& a = state.obs[static_cast<size_t>(x)].key;
    const ObsKey& b = state.obs[static_cast<size_t>(y)].key;
    if (a.entity != b.entity) {
      return state.entities.Lookup(a.entity) < state.entities.Lookup(b.entity);
    }
    if (a.attr != b.attr) return attr_view(a.attr) < attr_view(b.attr);
    return value_view(a.value) < value_view(b.value);
  });

  ResultFeatures features;
  features.set_label(search::InferTitle(result_root));
  for (const int32_t idx : order) {
    const ExtractionWorkspace::Obs& o = state.obs[static_cast<size_t>(idx)];
    const TypeId type = catalog->InternType(state.entities.Lookup(o.key.entity),
                                            attr_view(o.key.attr));
    const ValueId value_id = catalog->InternValue(value_view(o.key.value));
    const double cardinality =
        state.cardinality[static_cast<size_t>(o.key.entity)] > 0
            ? state.cardinality[static_cast<size_t>(o.key.entity)]
            : 1;
    features.AddObservation(type, value_id, o.count, cardinality);
  }
  features.Seal();
  return features;
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
      state.CountEntity(node->tag());
    } else {
      category = schema.CategoryOf(*node, &state.key_scratch);
      if (category == entity::NodeCategory::kEntity) {
        owner = node;
        state.CountEntity(node->tag());
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
    RecordLeaf(*node, category, state.InternEntity(owner->tag()), value,
               &state);
  }

  return Flush(
      state, result_root, catalog,
      [&](int32_t a) -> const std::string& { return state.attrs.Lookup(a); },
      [&](int32_t v) -> const std::string& { return state.values.Lookup(v); });
}

ResultFeatures FeatureExtractor::Extract(
    const xml::NodeTable& table, const entity::DocumentCategoryIndex& index,
    xml::NodeId root_id, FeatureCatalog* catalog, ExtractionScratch* scratch,
    const Cancellation& cancel) const {
  ExtractionWorkspace& state = *scratch->impl_;
  state.Reset();
  const bool expirable = cancel.can_expire();
  state.entity_epoch.resize(index.num_tags(), 0);
  state.entity_local.resize(index.num_tags(), -1);
  const uint32_t epoch = state.epoch;

  // Resolves a doc tag id to the local entity id, interning on first use.
  auto entity_of_tag = [&](int32_t tag) {
    if (state.entity_epoch[static_cast<size_t>(tag)] != epoch) {
      state.entity_epoch[static_cast<size_t>(tag)] = epoch;
      state.entity_local[static_cast<size_t>(tag)] =
          state.InternEntity(index.tag(tag));
    }
    return state.entity_local[static_cast<size_t>(tag)];
  };

  // Fast mode: the extractor's options match the encoding the index was
  // built with, so every leaf's (attribute, value) pair is already a
  // document-level id pair — the sweep does no string processing at all.
  const entity::LeafValueOptions& lv = index.leaf_value_options();
  if (options_.fold_value_case == lv.fold_value_case &&
      options_.max_value_length == lv.max_value_length &&
      options_.skip_empty_values == lv.skip_empty_values) {
    const xml::NodeId end = table.subtree_end(root_id);
    xml::NodeId memo_owner = xml::kInvalidNodeId;
    int32_t memo_entity = -1;
    for (xml::NodeId id = root_id; id < end; ++id) {
      if (expirable && ((id - root_id) & 4095) == 0 && cancel.Expired()) break;
      const entity::NodeCategory category = index.category(id);
      if (category == entity::NodeCategory::kValue) continue;  // text node
      if (id == root_id) {
        state.cardinality[static_cast<size_t>(
            entity_of_tag(index.tag_id(id)))] += 1;
        continue;  // a bare leaf result has no features
      }
      if (category == entity::NodeCategory::kEntity) {
        state.cardinality[static_cast<size_t>(
            entity_of_tag(index.tag_id(id)))] += 1;
      }
      const int32_t attr = index.obs_attr_id(id);
      if (attr < 0) continue;  // not a leaf, or skipped (empty value)
      const xml::NodeId owner_id = index.OwnerWithin(id, root_id);
      if (owner_id != memo_owner) {
        memo_owner = owner_id;
        memo_entity = entity_of_tag(index.tag_id(owner_id));
      }
      state.Record(memo_entity, attr, index.obs_value_id(id));
    }
    return Flush(
        state, *table.node(root_id), catalog,
        [&](int32_t a) -> const std::string& { return index.obs_attr(a); },
        [&](int32_t v) -> const std::string& { return index.obs_value(v); });
  }

  // Dynamic mode (options differ from the precomputed encoding):
  // processes a doc text id into the local value id (fold / truncate per
  // options), or kSkip; memoized so repeated values do no string work.
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

  // The subtree is the contiguous pre-order range [root_id, end): one
  // linear sweep over flat per-node id arrays — no pointer stack, no
  // schema probes, no ancestor climbs, and string work only on each
  // distinct (tag, text) first occurrence. Consecutive leaves usually
  // share their owning entity, so the owner's local id is memoized.
  const xml::NodeId end = table.subtree_end(root_id);
  xml::NodeId memo_owner = xml::kInvalidNodeId;
  int32_t memo_entity = -1;
  for (xml::NodeId id = root_id; id < end; ++id) {
    if (expirable && ((id - root_id) & 4095) == 0 && cancel.Expired()) break;
    const entity::NodeCategory category = index.category(id);
    if (category == entity::NodeCategory::kValue) continue;  // text node
    const int32_t tag = index.tag_id(id);
    if (id == root_id) {
      state.cardinality[static_cast<size_t>(entity_of_tag(tag))] += 1;
      continue;  // a bare leaf result has no features
    }
    if (category == entity::NodeCategory::kEntity) {
      state.cardinality[static_cast<size_t>(entity_of_tag(tag))] += 1;
    }
    if (!index.is_leaf_element(id)) continue;

    const int32_t text = index.text_id(id);
    const xml::NodeId owner_id = index.OwnerWithin(id, root_id);
    if (owner_id != memo_owner) {
      memo_owner = owner_id;
      memo_entity = entity_of_tag(index.tag_id(owner_id));
    }

    if (category == entity::NodeCategory::kMultiAttribute) {
      // Value-qualified type: attr = "tag: value", value = "yes"; the
      // composed attribute is memoized per (tag, text) pair.
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(tag)) << 32) |
          static_cast<uint32_t>(text);
      auto it = state.multi_local.find(key);
      int32_t attr;
      if (it != state.multi_local.end()) {
        attr = it->second;
      } else {
        const int32_t value = value_of_text(text);
        if (value == ExtractionWorkspace::kSkip) {
          attr = ExtractionWorkspace::kSkip;
        } else {
          state.attr_scratch.assign(index.tag(tag));
          state.attr_scratch.append(": ");
          state.attr_scratch.append(state.values.Lookup(value));
          attr = state.attrs.Intern(state.attr_scratch);
        }
        state.multi_local.emplace(key, attr);
      }
      if (attr == ExtractionWorkspace::kSkip) continue;
      if (state.yes_local < 0) state.yes_local = state.values.Intern("yes");
      state.Record(memo_entity, attr, state.yes_local);
    } else {
      const int32_t value = value_of_text(text);
      if (value == ExtractionWorkspace::kSkip) continue;
      if (state.attr_epoch[static_cast<size_t>(tag)] != epoch) {
        state.attr_epoch[static_cast<size_t>(tag)] = epoch;
        state.attr_local[static_cast<size_t>(tag)] =
            state.attrs.Intern(index.tag(tag));
      }
      state.Record(memo_entity, state.attr_local[static_cast<size_t>(tag)],
                   value);
    }
  }

  return Flush(
      state, *table.node(root_id), catalog,
      [&](int32_t a) -> const std::string& { return state.attrs.Lookup(a); },
      [&](int32_t v) -> const std::string& { return state.values.Lookup(v); });
}

}  // namespace xsact::feature
