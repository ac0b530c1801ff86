#include "xml/node.h"

#include "common/string_util.h"

namespace xsact::xml {

namespace {

void CollectText(const Node& node, std::string* out) {
  if (node.is_text()) {
    if (!out->empty() && !node.text().empty()) out->push_back(' ');
    out->append(Trim(node.text()));
    return;
  }
  for (const Node* child : node.children()) CollectText(*child, out);
}

}  // namespace

std::string Node::InnerText() const {
  std::string out;
  CollectText(*this, &out);
  const std::string_view trimmed = Trim(out);  // trimmed in place: no copy
  const size_t begin = static_cast<size_t>(trimmed.data() - out.data());
  out.resize(begin + trimmed.size());
  out.erase(0, begin);
  return out;
}

std::string_view Node::InnerTextView(std::string* scratch) const {
  scratch->clear();
  CollectText(*this, scratch);
  return Trim(*scratch);
}

size_t Node::SubtreeSize() const {
  size_t n = 1;
  for (const Node* c : children()) n += c->SubtreeSize();
  return n;
}

std::unique_ptr<Node> Node::Clone() const {
  std::unique_ptr<Node> copy = is_element() ? MakeElement(std::string(data_))
                                            : MakeText(std::string(data_));
  for (const auto& [name, value] : attributes_) {
    copy->AddAttribute(std::string(name), std::string(value));
  }
  for (const Node* c : children()) copy->AddChild(c->Clone());
  return copy;
}

}  // namespace xsact::xml
