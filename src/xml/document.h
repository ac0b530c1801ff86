// Document: owner of a parsed / constructed XML tree.
//
// Two storage modes share one type:
//   * Arena documents (from the zero-copy parser) retain the raw corpus
//     text and hold every Node contiguously in pre-order inside a flat
//     arena; tag/text/attribute views point into the retained text (or
//     into a small side arena holding the rare entity-decoded strings).
//   * Programmatic documents own a heap root built with Node::MakeElement
//     and friends (dataset generators, tests); each node owns its
//     strings.
// Either way the Document is the sole owner: moving it keeps every
// Node* stable (the arena's heap buffer moves with it).

#ifndef XSACT_XML_DOCUMENT_H_
#define XSACT_XML_DOCUMENT_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xml/node.h"

namespace xsact::xml {

/// An XML document: a single owned root element.
class Document {
 public:
  Document() = default;

  /// Takes ownership of a root element.
  explicit Document(std::unique_ptr<Node> root)
      : owned_root_(std::move(root)), root_(owned_root_.get()) {}

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Creates a document with a fresh `<tag>` root and returns it.
  static Document WithRoot(std::string tag) {
    return Document(Node::MakeElement(std::move(tag)));
  }

  /// The root element (nullptr for an empty document).
  Node* root() const { return root_; }

  /// True iff no root has been set.
  bool empty() const { return root_ == nullptr; }

  /// True iff the nodes live contiguously in pre-order in this
  /// document's arena (zero-copy parsed documents).
  bool is_arena() const { return !arena_.empty(); }
  const Node* arena_data() const { return arena_.data(); }
  size_t arena_size() const { return arena_.size(); }

  /// The retained source text an arena document's views point into
  /// (empty for programmatic documents).
  const std::string& source() const {
    static const std::string kEmpty;
    return source_ != nullptr ? *source_ : kEmpty;
  }

  /// Bytes of the xml::Node records (arena documents: the flat arena;
  /// programmatic documents: one record per node). Per-node heap spills
  /// (attribute lists, owned strings) are not counted.
  size_t NodeRecordBytes() const { return NodeCount() * sizeof(Node); }

  /// Bytes of retained source text plus the entity-decoded side arena
  /// (0 for programmatic documents, whose nodes own their strings).
  size_t SourceBytes() const {
    size_t bytes = source_ != nullptr ? source_->size() : 0;
    for (const std::string& s : decoded_) bytes += s.size();
    return bytes;
  }

  /// Total number of nodes (0 when empty). O(1) for arena documents.
  size_t NodeCount() const {
    if (is_arena()) return arena_.size();
    return root_ != nullptr ? root_->SubtreeSize() : 0;
  }

  /// Pre-order depth-first traversal; the visitor receives every node
  /// (elements and text) together with its depth (root = 0).
  void Visit(const std::function<void(const Node&, int depth)>& fn) const;

  /// Deep copy. The clone owns its strings, so it is independent of this
  /// document's arena / source buffer.
  Document Clone() const {
    return root_ != nullptr ? Document(root_->Clone()) : Document();
  }

 private:
  friend class ArenaParser;

  /// Retained corpus text (arena docs). Boxed so moving the Document can
  /// never relocate the bytes the node views point into (a short
  /// std::string's SSO buffer would move with the object).
  std::unique_ptr<std::string> source_;
  std::deque<std::string> decoded_;  // entity-unescaped side arena
  std::vector<Node> arena_;          // pre-order contiguous node storage
  std::unique_ptr<Node> owned_root_;  // programmatic documents
  Node* root_ = nullptr;
};

}  // namespace xsact::xml

#endif  // XSACT_XML_DOCUMENT_H_
