#include "search/slca.h"

#include <cstdint>

namespace xsact::search {

namespace {

bool AnyListEmpty(const MatchLists& lists) {
  if (lists.empty()) return true;
  for (const auto& l : lists) {
    if (l.empty()) return true;
  }
  return false;
}

}  // namespace

namespace {

// Arbitrary-keyword-count scan: identical sweep to the 64-keyword fast
// path below, with ceil(k/64) mask words per node instead of one.
std::vector<xml::NodeId> SlcaByScanWide(const xml::NodeTable& table,
                                        const MatchLists& lists,
                                        const Cancellation& cancel) {
  std::vector<xml::NodeId> result;
  const bool expirable = cancel.can_expire();
  const size_t k = lists.size();
  const size_t words = (k + 63) / 64;
  std::vector<uint64_t> mask(table.size() * words, 0);
  uint32_t tick = 0;
  for (size_t q = 0; q < k; ++q) {
    for (xml::NodeId id : lists[q]) {
      mask[static_cast<size_t>(id) * words + q / 64] |= 1ULL << (q % 64);
      if (expirable && (++tick & 4095u) == 0 && cancel.Expired()) return result;
    }
  }
  auto covers_all = [&](size_t v) {
    for (size_t w = 0; w < words; ++w) {
      const uint64_t want = w + 1 < words           ? ~0ULL
                            : (k % 64) == 0         ? ~0ULL
                                            : ((1ULL << (k % 64)) - 1);
      if (mask[v * words + w] != want) return false;
    }
    return true;
  };
  for (size_t i = table.size(); i-- > 1;) {
    if (expirable && (i & 4095u) == 0 && cancel.Expired()) return result;
    const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(i));
    if (parent == xml::kInvalidNodeId) continue;
    for (size_t w = 0; w < words; ++w) {
      mask[static_cast<size_t>(parent) * words + w] |= mask[i * words + w];
    }
  }
  std::vector<bool> has_full_child(table.size(), false);
  for (size_t i = 1; i < table.size(); ++i) {
    if (covers_all(i)) {
      const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(i));
      if (parent != xml::kInvalidNodeId) {
        has_full_child[static_cast<size_t>(parent)] = true;
      }
    }
  }
  for (size_t i = 0; i < table.size(); ++i) {
    if (expirable && (i & 4095u) == 0 && cancel.Expired()) break;
    if (covers_all(i) && !has_full_child[i] &&
        table.node(static_cast<xml::NodeId>(i))->is_element()) {
      result.push_back(static_cast<xml::NodeId>(i));
    }
  }
  return result;
}

}  // namespace

std::vector<xml::NodeId> ComputeSlcaByScan(const xml::NodeTable& table,
                                           const MatchLists& lists,
                                           const Cancellation& cancel) {
  std::vector<xml::NodeId> result;
  if (AnyListEmpty(lists)) return result;
  if (lists.size() > 64) return SlcaByScanWide(table, lists, cancel);

  const bool expirable = cancel.can_expire();
  const uint64_t full =
      lists.size() == 64 ? ~0ULL : ((1ULL << lists.size()) - 1);
  std::vector<uint64_t> mask(table.size(), 0);
  uint32_t tick = 0;
  for (size_t k = 0; k < lists.size(); ++k) {
    for (xml::NodeId id : lists[k]) {
      mask[static_cast<size_t>(id)] |= (1ULL << k);
      if (expirable && (++tick & 4095u) == 0 && cancel.Expired()) return result;
    }
  }
  // Pre-order table: children have larger ids than parents, so a reverse
  // sweep folds every subtree's mask into its root before the root is read.
  for (size_t i = table.size(); i-- > 1;) {
    if (expirable && (i & 4095u) == 0 && cancel.Expired()) return result;
    const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(i));
    if (parent != xml::kInvalidNodeId) {
      mask[static_cast<size_t>(parent)] |= mask[i];
    }
  }
  // A node is an SLCA iff it covers all keywords and no child does.
  std::vector<bool> has_full_child(table.size(), false);
  for (size_t i = 1; i < table.size(); ++i) {
    if (mask[i] == full) {
      const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(i));
      if (parent != xml::kInvalidNodeId) {
        has_full_child[static_cast<size_t>(parent)] = true;
      }
    }
  }
  for (size_t i = 0; i < table.size(); ++i) {
    if (expirable && (i & 4095u) == 0 && cancel.Expired()) break;
    if (mask[i] == full && !has_full_child[i] &&
        table.node(static_cast<xml::NodeId>(i))->is_element()) {
      result.push_back(static_cast<xml::NodeId>(i));
    }
  }
  return result;
}

std::vector<xml::NodeId> ComputeElcaByScan(const xml::NodeTable& table,
                                           const MatchLists& lists,
                                           const Cancellation& cancel) {
  std::vector<xml::NodeId> result;
  if (AnyListEmpty(lists)) return result;
  const bool expirable = cancel.can_expire();
  const size_t k = lists.size();
  const size_t n = table.size();

  // cnt[v][q]  = matches of keyword q in subtree(v).
  // under[v][q]= matches of keyword q inside FULL descendants of v.
  // Flat row-major arrays; a reverse pre-order sweep folds children into
  // parents exactly once (children have larger ids).
  std::vector<int32_t> cnt(n * k, 0);
  std::vector<int32_t> under(n * k, 0);
  for (size_t q = 0; q < k; ++q) {
    for (xml::NodeId id : lists[q]) {
      ++cnt[static_cast<size_t>(id) * k + q];
    }
  }
  auto full = [&](size_t v) {
    for (size_t q = 0; q < k; ++q) {
      if (cnt[v * k + q] == 0) return false;
    }
    return true;
  };
  for (size_t v = n; v-- > 1;) {
    if (expirable && (v & 4095u) == 0 && cancel.Expired()) return result;
    const xml::NodeId parent = table.parent(static_cast<xml::NodeId>(v));
    if (parent == xml::kInvalidNodeId) continue;
    const size_t p = static_cast<size_t>(parent);
    const bool child_full = full(v);
    for (size_t q = 0; q < k; ++q) {
      // A full child shields ALL its matches from the parent's exclusive
      // evidence; a non-full child only shields what its own full
      // descendants already shield.
      under[p * k + q] += child_full ? cnt[v * k + q] : under[v * k + q];
      cnt[p * k + q] += cnt[v * k + q];
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (expirable && (v & 4095u) == 0 && cancel.Expired()) break;
    if (!table.node(static_cast<xml::NodeId>(v))->is_element()) continue;
    bool elca = true;
    for (size_t q = 0; q < k; ++q) {
      if (cnt[v * k + q] - under[v * k + q] <= 0) {
        elca = false;
        break;
      }
    }
    if (elca) result.push_back(static_cast<xml::NodeId>(v));
  }
  return result;
}

}  // namespace xsact::search
