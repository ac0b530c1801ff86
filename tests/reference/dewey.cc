#include "reference/dewey.h"

namespace xsact::reference {

std::string DeweyId::ToString() const {
  if (empty()) return "ε";
  std::string out;
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(data_[i]);
  }
  return out;
}

std::vector<DeweyId> DeweyLabels(const xml::NodeTable& table) {
  const size_t n = table.size();
  std::vector<DeweyId> labels(n);
  // next_ordinal[p]: how many children of p have been labelled so far.
  std::vector<int32_t> next_ordinal(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(i));
    if (parent == xml::kInvalidNodeId) continue;  // the root: empty label
    const size_t p = static_cast<size_t>(parent);
    labels[i] = labels[p];
    labels[i].Push(next_ordinal[p]++);
  }
  return labels;
}

xml::NodeId FindByDewey(const std::vector<DeweyId>& labels,
                        const DeweyId& dewey) {
  // Dewey labels are in pre-order, and so are NodeIds: binary search.
  const auto it = std::lower_bound(labels.begin(), labels.end(), dewey);
  if (it != labels.end() && *it == dewey) {
    return static_cast<xml::NodeId>(it - labels.begin());
  }
  return xml::kInvalidNodeId;
}

}  // namespace xsact::reference
