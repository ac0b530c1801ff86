#include "entity/category_index.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/string_util.h"

namespace xsact::entity {

namespace {

/// rank[id] = position of strings.Lookup(id) in byte-wise sorted order
/// (std::string's operator<, the order the extractor's output follows).
std::vector<uint32_t> SortRanks(const StringInterner& strings) {
  std::vector<int32_t> order(strings.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return strings.Lookup(a) < strings.Lookup(b);
  });
  std::vector<uint32_t> rank(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank[static_cast<size_t>(order[i])] = static_cast<uint32_t>(i);
  }
  return rank;
}

std::atomic<uint64_t> g_next_id_space{1};

}  // namespace

DocumentCategoryIndex::DocumentCategoryIndex(const xml::NodeTable& table,
                                             const EntitySchema& schema)
    : id_space_(g_next_id_space.fetch_add(1, std::memory_order_relaxed)) {
  const size_t n = table.size();
  categories_.resize(n);
  owners_.resize(n);
  leaf_.resize(n);
  tag_ids_.assign(n, -1);
  text_ids_.assign(n, -1);
  obs_attr_ids_.assign(n, -1);
  obs_value_ids_.assign(n, -1);

  // Pre-order ids: parents precede children, so owners resolve in one
  // forward pass.
  std::string text_scratch;
  std::string attr_scratch;
  std::string key_scratch;
  for (size_t i = 0; i < n; ++i) {
    const xml::NodeId id = static_cast<xml::NodeId>(i);
    const xml::Node* node = table.node(id);
    categories_[i] = schema.CategoryOf(*node, &key_scratch);
    leaf_[i] = node->IsLeafElement() ? 1 : 0;
    if (node->is_element()) {
      tag_ids_[i] = tags_.Intern(node->tag());
      if (leaf_[i] != 0) {
        const std::string_view raw = node->InnerTextView(&text_scratch);
        text_ids_[i] = texts_.Intern(raw);
        // Precompute the observation encoding under leaf_options_.
        if (raw.empty() && leaf_options_.skip_empty_values) {
          // skipped: ids stay -1
        } else {
          if (leaf_options_.fold_value_case) xsact::FoldCase(&text_scratch);
          std::string_view value = text_scratch;
          value = value.substr(
              static_cast<size_t>(raw.data() - text_scratch.data()),
              raw.size());
          if (value.size() > leaf_options_.max_value_length) {
            value = value.substr(0, leaf_options_.max_value_length);
          }
          if (categories_[i] == NodeCategory::kMultiAttribute) {
            attr_scratch.assign(node->tag());
            attr_scratch.append(": ");
            attr_scratch.append(value);
            obs_attr_ids_[i] = obs_attrs_.Intern(attr_scratch);
            obs_value_ids_[i] = obs_values_.Intern("yes");
          } else {
            obs_attr_ids_[i] = obs_attrs_.Intern(node->tag());
            obs_value_ids_[i] = obs_values_.Intern(value);
          }
        }
      }
    }
    const xml::NodeId parent = table.parent(id);
    if (node->is_element() && categories_[i] == NodeCategory::kEntity) {
      owners_[i] = id;
    } else {
      owners_[i] = parent != xml::kInvalidNodeId
                       ? owners_[static_cast<size_t>(parent)]
                       : id;
    }
  }
  tag_ranks_ = SortRanks(tags_);
  obs_attr_ranks_ = SortRanks(obs_attrs_);
  obs_value_ranks_ = SortRanks(obs_values_);
}

}  // namespace xsact::entity
