// Smallest Lowest Common Ancestor (SLCA) computation.
//
// The SLCA semantics defines the answer set of an XML keyword query: the
// deepest nodes whose subtree contains every query keyword, excluding any
// node with a descendant that already contains them all. XSACT's search
// engine (an XSeek [3,4] reimplementation) uses SLCA to locate matches
// before inferring the entity ("return node") to present as the result.
//
// Three kernel families are provided:
//  * ComputeSlcaByScan    — one linear pass propagating keyword bitmasks
//                           up the tree; O(nodes * keywords/64), simple
//                           and obviously correct (used as test oracle).
//                           Any keyword count (multi-word masks past 64).
//  * ComputeSlcaMerge     — the Indexed Lookup Eager algorithm of Xu &
//                           Papakonstantinou run directly on the
//                           block-compressed postings: pre-order NodeId
//                           arithmetic (ancestor checks via
//                           NodeTable::parent/subtree_end) stands in for
//                           path-label prefixes, and skip-entry galloping
//                           replaces binary search, decoding at most one
//                           block per probe. Sublinear for selective
//                           keywords.
//  * ComputeElcaByScan /  — Exclusive LCA semantics (superset of SLCA),
//    ComputeElcaMerge       as a full scan and as a k-way heap merge of
//                           the compressed postings with a stack of open
//                           ancestors (cost ~ sum of list lengths, not
//                           corpus size).
// All SLCA variants return identical answers, as do both ELCA variants;
// the search engine picks per query by selectivity (see search_engine.cc).

#ifndef XSACT_SEARCH_SLCA_H_
#define XSACT_SEARCH_SLCA_H_

#include <vector>

#include "common/cancellation.h"
#include "search/posting_list.h"
#include "search/postings_codec.h"
#include "xml/path.h"

namespace xsact::search {

/// Keyword match lists: one sorted element-id list view per keyword. The
/// views typically point straight into decode scratch (or into a
/// caller-owned filtered vector); assembling them copies no ids beyond
/// the decode itself.
using MatchLists = std::vector<PostingList>;

/// One keyword's postings for the merge kernels: either a compressed
/// handle straight out of the inverted index, or a plain decoded view
/// (fielded terms filter into caller scratch and stay uncompressed).
class PostingSource {
 public:
  PostingSource() = default;
  explicit PostingSource(CompressedPostings compressed)
      : compressed_(compressed) {}
  explicit PostingSource(PostingList plain) : plain_(plain), is_plain_(true) {}

  bool is_plain() const { return is_plain_; }
  const CompressedPostings& compressed() const { return compressed_; }
  const PostingList& plain() const { return plain_; }
  size_t size() const {
    return is_plain_ ? plain_.size() : compressed_.size();
  }
  bool empty() const { return size() == 0; }

 private:
  CompressedPostings compressed_;
  PostingList plain_;
  bool is_plain_ = false;
};

/// Per-keyword posting sources for the merge kernels.
using MergeLists = std::vector<PostingSource>;

/// Reusable evaluation state for the merge kernels: block decode
/// buffers, the candidate set, and the ELCA heap/stack. Clear() drops
/// contents but keeps capacity, so a session-held scratch makes the
/// merge path allocation-free in steady state.
struct MergeScratch {
  std::vector<xml::NodeId> blocks;     // k * kPostingsBlockSize decode slots
  std::vector<uint32_t> cached_block;  // per list: block index resident above
  std::vector<size_t> hint;            // per list: monotone search cursor
  std::vector<xml::NodeId> candidates;
  std::vector<size_t> heap;            // ELCA: list indices keyed by head id
  std::vector<xml::NodeId> heads;      // ELCA: current posting per list
  std::vector<size_t> pos;             // ELCA: per-list stream positions
  std::vector<xml::NodeId> stack_id;   // ELCA: open ancestor path
  std::vector<xml::NodeId> stack_end;  // ELCA: matching subtree extents
  std::vector<int32_t> counters;       // ELCA: 2k counters per stack slot

  void Clear() {
    blocks.clear();
    cached_block.clear();
    hint.clear();
    candidates.clear();
    heap.clear();
    heads.clear();
    pos.clear();
    stack_id.clear();
    stack_end.clear();
    counters.clear();
  }
};

// Every kernel takes an optional Cancellation and polls it at a strided
// cadence (every few thousand fold steps / 64 anchor probes or heap
// pops). On expiry a kernel stops early and returns whatever partial
// answer it accumulated — callers that passed an expirable token MUST
// call cancel.Check() afterwards and discard the result on error (the
// search engine does; see search_engine.cc).

/// Linear-scan SLCA. Any number of keywords. Returns element ids in
/// document order; empty when any list is empty (conjunctive semantics).
std::vector<xml::NodeId> ComputeSlcaByScan(const xml::NodeTable& table,
                                           const MatchLists& lists,
                                           const Cancellation& cancel = {});

/// Skip-driven SLCA merge over compressed postings. Same contract and
/// results as ComputeSlcaByScan; cost scales with the shortest list.
std::vector<xml::NodeId> ComputeSlcaMerge(const xml::NodeTable& table,
                                          const MergeLists& lists,
                                          MergeScratch* scratch,
                                          const Cancellation& cancel = {});

/// Exclusive LCA (ELCA, XRank-style) semantics: a node v answers the
/// query iff its subtree contains every keyword through WITNESS matches
/// that do not lie inside any descendant already containing all
/// keywords. Every SLCA is an ELCA; ELCA additionally keeps ancestors
/// that have their own exclusive evidence (e.g. a <product> whose <name>
/// matches everything still answers if the product has further matches
/// of every keyword outside that name). O(nodes * keywords).
std::vector<xml::NodeId> ComputeElcaByScan(const xml::NodeTable& table,
                                           const MatchLists& lists,
                                           const Cancellation& cancel = {});

/// ELCA as a k-way merge of the compressed postings: a heap interleaves
/// the lists in pre-order while a stack maintains the open ancestor path
/// with per-keyword exclusive counters. Same results as ComputeElcaByScan
/// at cost ~ sum of list lengths (times log k) instead of corpus size.
std::vector<xml::NodeId> ComputeElcaMerge(const xml::NodeTable& table,
                                          const MergeLists& lists,
                                          MergeScratch* scratch,
                                          const Cancellation& cancel = {});

}  // namespace xsact::search

#endif  // XSACT_SEARCH_SLCA_H_
