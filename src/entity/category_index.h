// DocumentCategoryIndex: per-node schema facts and document-level
// identifier encoding, precomputed once so the per-query serve path
// never probes the schema or re-reads node strings.
//
// For every NodeId of a NodeTable it stores:
//   * the node's NodeCategory (one schema probe per node, at build time),
//   * the nearest entity ancestor-or-self under the DOCUMENT root
//     ("global owner"; pre-order comparison rebinds it to any result
//     subtree in O(1), see OwnerWithin),
//   * whether the node is a leaf element,
//   * the element tag interned to a document-level tag id, and
//   * for leaf elements, the trimmed inner text interned to a
//     document-level text id (computed once, not per query).
//
// Per DISTINCT tag, observation attribute and observation value string
// (not per node) it also keeps a sort rank: comparing two ranks answers
// exactly what comparing the two strings would, so feature extraction
// orders its observations on integers.
//
// Subtree extents are not repeated here: NodeTable::subtree_end already
// holds them. With both, feature extraction over a result subtree is a
// single linear sweep of a contiguous id range reading flat arrays — the
// XSACT serve path's analogue of a native-XML system's term/path
// identifier encoding.

#ifndef XSACT_ENTITY_CATEGORY_INDEX_H_
#define XSACT_ENTITY_CATEGORY_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"
#include "entity/entity_identifier.h"
#include "entity/node_category.h"
#include "xml/path.h"

namespace xsact::entity {

/// Leaf value processing knobs baked into the precomputed observation
/// encoding. Field semantics (and defaults) mirror
/// feature::ExtractorOptions; extraction uses the precomputed encoding
/// only when its options match these exactly.
struct LeafValueOptions {
  bool fold_value_case = true;
  size_t max_value_length = 48;
  bool skip_empty_values = true;
};

class DocumentCategoryIndex {
 public:
  /// Builds the index in one pass over `table`. `table` and `schema` are
  /// only read during construction (the index holds no references, so it
  /// stays valid when the owning engine is moved); readers pass the table
  /// back in wherever nodes are needed.
  DocumentCategoryIndex(const xml::NodeTable& table,
                        const EntitySchema& schema);

  /// CategoryOf(node), cached.
  NodeCategory category(xml::NodeId id) const {
    return categories_[static_cast<size_t>(id)];
  }

  /// Nearest entity ancestor-or-self under the document root; the node
  /// itself when it is an entity, the document root when no entity exists
  /// on the path.
  xml::NodeId owner(xml::NodeId id) const {
    return owners_[static_cast<size_t>(id)];
  }

  /// EntitySchema::OwningEntity(node, within) for any ancestor-or-self
  /// `within_id` of `id`: among the two ancestors, the deeper one (larger
  /// pre-order id) is the walk's first hit.
  xml::NodeId OwnerWithin(xml::NodeId id, xml::NodeId within_id) const {
    const xml::NodeId global = owner(id);
    return global >= within_id ? global : within_id;
  }

  /// Node::IsLeafElement(), cached.
  bool is_leaf_element(xml::NodeId id) const {
    return leaf_[static_cast<size_t>(id)] != 0;
  }

  /// Document-level tag id of an element (-1 for text nodes).
  int32_t tag_id(xml::NodeId id) const {
    return tag_ids_[static_cast<size_t>(id)];
  }
  size_t num_tags() const { return tags_.size(); }
  const std::string& tag(int32_t tag_id) const { return tags_.Lookup(tag_id); }
  /// Position of tag(tag_id) in the byte-wise sorted order of all tags.
  uint32_t tag_rank(int32_t tag_id) const {
    return tag_ranks_[static_cast<size_t>(tag_id)];
  }

  /// Document-level id of a leaf element's trimmed inner text (-1 for
  /// non-leaf nodes). Equal ids denote byte-identical text.
  int32_t text_id(xml::NodeId id) const {
    return text_ids_[static_cast<size_t>(id)];
  }
  size_t num_texts() const { return texts_.size(); }
  const std::string& text(int32_t text_id) const {
    return texts_.Lookup(text_id);
  }

  /// Bytes held by the per-node columns (category, owner, leaf flag, tag,
  /// text and observation ids; 22 per node). The interned strings behind
  /// the ids are per distinct value and not counted.
  size_t ColumnBytes() const {
    return categories_.size() * sizeof(NodeCategory) +
           owners_.size() * sizeof(xml::NodeId) +
           leaf_.size() * sizeof(uint8_t) +
           (tag_ids_.size() + text_ids_.size() + obs_attr_ids_.size() +
            obs_value_ids_.size()) *
               sizeof(int32_t);
  }

  /// The options the precomputed observation encoding was built with.
  const LeafValueOptions& leaf_value_options() const { return leaf_options_; }

  /// Precomputed observation encoding of a leaf element under
  /// leaf_value_options(): the attribute name (the tag, value-qualified
  /// for multi-attributes) and the processed value ("yes" for
  /// multi-attributes), both as document-level ids. -1 when the node is
  /// not a leaf element or its observation is skipped (empty value).
  /// Equal ids denote byte-identical strings, so aggregation on these
  /// ids equals aggregation on the strings.
  int32_t obs_attr_id(xml::NodeId id) const {
    return obs_attr_ids_[static_cast<size_t>(id)];
  }
  int32_t obs_value_id(xml::NodeId id) const {
    return obs_value_ids_[static_cast<size_t>(id)];
  }
  size_t num_obs_attrs() const { return obs_attrs_.size(); }
  const std::string& obs_attr(int32_t attr_id) const {
    return obs_attrs_.Lookup(attr_id);
  }
  size_t num_obs_values() const { return obs_values_.size(); }
  const std::string& obs_value(int32_t value_id) const {
    return obs_values_.Lookup(value_id);
  }
  /// Sort ranks of obs_attr / obs_value strings (as tag_rank).
  uint32_t obs_attr_rank(int32_t attr_id) const {
    return obs_attr_ranks_[static_cast<size_t>(attr_id)];
  }
  uint32_t obs_value_rank(int32_t value_id) const {
    return obs_value_ranks_[static_cast<size_t>(value_id)];
  }

  /// Process-unique tag of this index's id spaces: two indexes never
  /// share one, so a memo keyed on (id_space, id) cannot confuse the ids
  /// of different documents. Kept across moves.
  uint64_t id_space() const { return id_space_; }

 private:
  std::vector<NodeCategory> categories_;
  std::vector<xml::NodeId> owners_;
  std::vector<uint8_t> leaf_;
  StringInterner tags_;
  StringInterner texts_;
  std::vector<int32_t> tag_ids_;
  std::vector<int32_t> text_ids_;
  LeafValueOptions leaf_options_;
  StringInterner obs_attrs_;
  StringInterner obs_values_;
  std::vector<int32_t> obs_attr_ids_;
  std::vector<int32_t> obs_value_ids_;
  std::vector<uint32_t> tag_ranks_;
  std::vector<uint32_t> obs_attr_ranks_;
  std::vector<uint32_t> obs_value_ranks_;
  uint64_t id_space_ = 0;
};

}  // namespace xsact::entity

#endif  // XSACT_ENTITY_CATEGORY_INDEX_H_
