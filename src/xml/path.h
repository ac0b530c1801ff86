// Minimal path queries over the DOM and a node table keyed by pre-order ids.
//
// The node table assigns every node a pre-order integer id; it is the
// bridge between the DOM and the search engine's posting lists (which
// store node ids, not pointers). Ancestry is answered from two int32
// columns — parent links and subtree extents (a subtree is a contiguous
// id range) — so no per-node path label is stored. For arena documents
// the table is produced by the parser itself (fused build, see
// xml/parser.h): ids, parents and subtree extents are assigned while
// tags close, so no second tree walk ever happens. IdOf reads the id stamped
// on the node (validated against the table) — the seed's
// unordered_map<const Node*, NodeId> is gone.

#ifndef XSACT_XML_PATH_H_
#define XSACT_XML_PATH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/document.h"

namespace xsact::xml {

/// Dense pre-order id of a node within one document.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNodeId = -1;

/// Immutable side table: node pointers, parent links and subtree extents
/// for every node of a document, indexed by pre-order NodeId (16 bytes
/// per node).
class NodeTable {
 public:
  /// Builds the table for `doc` (re-build after any mutation). Arena
  /// documents get a linear, recursion-free sweep; prefer ParseCorpus,
  /// which emits the table during the parse itself.
  static NodeTable Build(const Document& doc);

  /// Number of nodes.
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  const Node* node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  NodeId parent(NodeId id) const { return parents_[static_cast<size_t>(id)]; }

  /// One past the last pre-order id of the subtree rooted at `id`
  /// (subtrees are contiguous id ranges, so the subtree node count is
  /// subtree_end(id) - id).
  NodeId subtree_end(NodeId id) const {
    return subtree_end_[static_cast<size_t>(id)];
  }

  /// The id of `node`, or kInvalidNodeId if the node is not in this
  /// table. O(1): reads the id stamped on the node during the build and
  /// validates it against the table, so foreign nodes never alias.
  NodeId IdOf(const Node* node) const {
    if (node == nullptr) return kInvalidNodeId;
    const NodeId id = node->table_id_;
    if (id >= 0 && static_cast<size_t>(id) < nodes_.size() &&
        nodes_[static_cast<size_t>(id)] == node) {
      return id;
    }
    return kInvalidNodeId;
  }

  /// Bytes held by the table's per-node columns (node pointer, parent,
  /// subtree end: 16 per node on 64-bit targets).
  size_t ColumnBytes() const {
    return nodes_.size() * sizeof(const Node*) +
           parents_.size() * sizeof(NodeId) +
           subtree_end_.size() * sizeof(NodeId);
  }

  /// Slash-separated tag path from the root, e.g. "catalog/product/name".
  std::string TagPath(NodeId id) const;

 private:
  friend class ArenaParser;

  std::vector<const Node*> nodes_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> subtree_end_;
};

/// Evaluates an absolute slash path ("/catalog/product/name") against the
/// document; returns all matching elements in document order. A leading
/// slash is optional; the first component must match the root tag.
std::vector<const Node*> SelectPath(const Document& doc,
                                    std::string_view path);

/// All descendant elements (including `root` itself) with the given tag.
std::vector<const Node*> SelectByTag(const Node& root, std::string_view tag);

}  // namespace xsact::xml

#endif  // XSACT_XML_PATH_H_
