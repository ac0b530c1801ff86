// Inverted index over XML text content.
//
// Every text node's tokens are posted against the ELEMENT that contains
// the text (attribute values against their owning element). Postings are
// dense pre-order NodeIds (document order), so posting lists double as
// document-ordered match lists for the SLCA/ELCA kernels.
//
// Terms are interned to dense ids. Posting lists are stored
// block-compressed (see postings_codec.h): one shared payload byte
// array, one shared skip-entry array, and three CSR offset arrays
// mapping a term id to its byte / skip / posting ranges. Lookups are
// heterogeneous string_view probes — a query term never materializes a
// std::string, and a hit returns a CompressedPostings handle into the
// shared arrays. Callers that need a flat id array decode into
// caller-owned scratch (Decode); the merge kernels and the ranker read
// the compressed form directly.

#ifndef XSACT_SEARCH_INVERTED_INDEX_H_
#define XSACT_SEARCH_INVERTED_INDEX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "search/posting_list.h"
#include "search/postings_codec.h"
#include "xml/document.h"
#include "xml/path.h"

namespace xsact::search {

/// Keyword -> block-compressed element-id posting lists for one document.
class InvertedIndex {
 public:
  /// Builds the index in a single sweep of the node table. `table` must
  /// outlive any query evaluated against this index.
  static InvertedIndex Build(const xml::NodeTable& table);

  /// Compressed posting list for a (case-folded) term; empty handle when
  /// absent. Allocation-free.
  CompressedPostings Postings(std::string_view term) const {
    const int32_t id = terms_.Find(term);
    if (id < 0) return CompressedPostings();
    return PostingsById(static_cast<size_t>(id));
  }

  /// Decodes a term's postings into `*scratch` (capacity reused) and
  /// returns a view of it; empty view when the term is absent.
  PostingList Decode(std::string_view term,
                     std::vector<xml::NodeId>* scratch) const {
    return Postings(term).DecodeAll(scratch);
  }

  /// Document frequency: number of distinct elements containing `term`
  /// (0 when absent). Reads only the CSR offsets, never the payload.
  size_t Df(std::string_view term) const {
    const int32_t id = terms_.Find(term);
    if (id < 0) return 0;
    const size_t t = static_cast<size_t>(id);
    return count_offsets_[t + 1] - count_offsets_[t];
  }

  /// Number of distinct terms.
  size_t TermCount() const { return terms_.size(); }

  /// Total number of postings across all terms.
  size_t PostingCount() const {
    return count_offsets_.empty() ? 0 : count_offsets_.back();
  }

  /// True iff the term occurs anywhere in the document.
  bool Contains(std::string_view term) const { return terms_.Find(term) >= 0; }

  /// Bytes held by the compressed posting storage: payload + skip
  /// entries + the three CSR offset arrays (term strings excluded —
  /// both layouts pay the same interner cost).
  size_t CompressedSizeBytes() const {
    return bytes_.size() * sizeof(uint8_t) +
           skips_.size() * sizeof(PostingsSkip) +
           (byte_offsets_.size() + skip_offsets_.size() +
            count_offsets_.size()) *
               sizeof(uint32_t);
  }

  /// Bytes the same postings would occupy in the uncompressed CSR layout
  /// this index replaced (one NodeId per posting plus a size_t offset
  /// per term) — the denominator of the compression-ratio gate.
  size_t RawCsrSizeBytes() const {
    return PostingCount() * sizeof(xml::NodeId) +
           (TermCount() + 1) * sizeof(size_t);
  }

  /// Error captured while building (a malformed per-term id sequence or
  /// an injected build fault). An index with a non-OK build status must
  /// not be served; Validate() reports it.
  const Status& build_status() const { return build_status_; }

  /// Full structural validation: CSR offset consistency plus a checked
  /// decode of every term's posting list (checksums, bounds, strictly
  /// increasing ids < `node_count`). Intended to run once per snapshot
  /// build/reload, not per query.
  Status Validate(size_t node_count) const;

 private:
  /// Handle for the term with dense id `t` (must be < TermCount()).
  CompressedPostings PostingsById(size_t t) const {
    return CompressedPostings(bytes_.data() + byte_offsets_[t],
                              skips_.data() + skip_offsets_[t],
                              skip_offsets_[t + 1] - skip_offsets_[t],
                              count_offsets_[t + 1] - count_offsets_[t],
                              byte_offsets_[t + 1] - byte_offsets_[t]);
  }

  StringInterner terms_;                  // term -> dense term id
  Status build_status_;                   // first error hit while building
  std::vector<uint8_t> bytes_;            // all block payloads
  std::vector<PostingsSkip> skips_;       // all skip entries
  std::vector<uint32_t> byte_offsets_;    // term id -> payload byte range
  std::vector<uint32_t> skip_offsets_;    // term id -> skip entry range
  std::vector<uint32_t> count_offsets_;   // term id -> posting count prefix
};

}  // namespace xsact::search

#endif  // XSACT_SEARCH_INVERTED_INDEX_H_
