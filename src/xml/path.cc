#include "xml/path.h"

#include "common/string_util.h"

namespace xsact::xml {

NodeTable NodeTable::Build(const Document& doc) {
  NodeTable table;
  if (doc.empty()) return table;
  const size_t n = doc.NodeCount();
  table.nodes_.reserve(n);
  table.parents_.reserve(n);
  table.subtree_end_.assign(n, 0);

  // Iterative pre-order walk; works for both arena and programmatic
  // documents. Subtree extents are assigned when a node's subtree is
  // exhausted (the analogue of "as tags close").
  struct Frame {
    const Node* node;
    NodeId id;
  };
  std::vector<Frame> stack;
  const Node* cur = doc.root();
  NodeId parent = kInvalidNodeId;
  for (;;) {
    const NodeId id = static_cast<NodeId>(table.nodes_.size());
    cur->table_id_ = id;
    table.nodes_.push_back(cur);
    table.parents_.push_back(parent);
    if (cur->first_child() != nullptr) {
      stack.push_back(Frame{cur, id});
      parent = id;
      cur = cur->first_child();
      continue;
    }
    table.subtree_end_[static_cast<size_t>(id)] = id + 1;
    // Ascend until a next sibling exists, closing subtrees on the way.
    const Node* next = cur->next_sibling();
    while (next == nullptr && !stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      table.subtree_end_[static_cast<size_t>(frame.id)] =
          static_cast<NodeId>(table.nodes_.size());
      next = frame.node->next_sibling();
      cur = frame.node;
      parent = stack.empty() ? kInvalidNodeId : stack.back().id;
    }
    if (next == nullptr) break;  // root closed
    cur = next;
    parent = stack.empty() ? kInvalidNodeId : stack.back().id;
  }
  return table;
}

std::string NodeTable::TagPath(NodeId id) const {
  std::vector<std::string_view> parts;
  for (NodeId cur = id; cur != kInvalidNodeId; cur = parent(cur)) {
    const Node* n = node(cur);
    parts.push_back(n->is_element() ? n->tag() : std::string_view("#text"));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out.push_back('/');
    out.append(*it);
  }
  return out;
}

std::vector<const Node*> SelectPath(const Document& doc,
                                    std::string_view path) {
  std::vector<const Node*> current;
  if (doc.empty()) return current;
  std::string_view trimmed = path;
  if (!trimmed.empty() && trimmed.front() == '/') trimmed.remove_prefix(1);
  const std::vector<std::string> parts = Split(trimmed, '/');
  if (parts.empty() || parts[0].empty()) return current;
  if (doc.root()->tag() != parts[0]) return current;
  current.push_back(doc.root());
  for (size_t i = 1; i < parts.size(); ++i) {
    std::vector<const Node*> next;
    for (const Node* n : current) {
      for (const Node* child : n->children()) {
        if (child->is_element() && child->tag() == parts[i]) {
          next.push_back(child);
        }
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

namespace {

void SelectByTagImpl(const Node& node, std::string_view tag,
                     std::vector<const Node*>* out) {
  if (node.is_element() && node.tag() == tag) out->push_back(&node);
  for (const Node* child : node.children()) {
    SelectByTagImpl(*child, tag, out);
  }
}

}  // namespace

std::vector<const Node*> SelectByTag(const Node& root, std::string_view tag) {
  std::vector<const Node*> out;
  SelectByTagImpl(root, tag, &out);
  return out;
}

}  // namespace xsact::xml
