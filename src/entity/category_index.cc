#include "entity/category_index.h"

#include "common/string_util.h"

namespace xsact::entity {

DocumentCategoryIndex::DocumentCategoryIndex(const xml::NodeTable& table,
                                             const EntitySchema& schema) {
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
}

}  // namespace xsact::entity
