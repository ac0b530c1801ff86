// XSeek-style keyword search engine over one XML document.
//
// Pipeline per query (paper Figure 3, "Search Engine" box):
//   1. tokenize the keyword query,
//   2. fetch posting lists from the inverted index,
//   3. compute SLCA nodes,
//   4. infer the RETURN NODE for each SLCA: the nearest ancestor-or-self
//      element categorized as an entity (XSeek's "meaningful return
//      information" heuristic), deduplicated in document order.
//
// The returned subtrees are exactly the "structured search results" that
// XSACT's result processor consumes.

#ifndef XSACT_SEARCH_SEARCH_ENGINE_H_
#define XSACT_SEARCH_SEARCH_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "entity/category_index.h"
#include "entity/entity_identifier.h"
#include "search/inverted_index.h"
#include "search/slca.h"
#include "xml/document.h"
#include "xml/path.h"

namespace xsact::search {

/// One keyword-search result: an entity subtree of the corpus document.
struct SearchResult {
  const xml::Node* root = nullptr;  ///< inferred return node (entity subtree)
  xml::NodeId root_id = xml::kInvalidNodeId;
  const xml::Node* slca = nullptr;  ///< the SLCA match this result came from
  std::string title;                ///< display title (name/title child text)
};

/// Which answer semantics / algorithm family the engine uses.
///  * kScan    — SLCA semantics, always the linear-scan kernel (the
///               reference configuration for identity gates);
///  * kSlca    — SLCA semantics with selectivity dispatch: the
///               skip-driven merge over the compressed postings when
///               the query is selective, the scan kernel when the
///               posting volume approaches corpus size (identical
///               answers either way; the default);
///  * kElca    — Exclusive LCA semantics (superset of SLCA; see
///               slca.h), with the same merge-vs-scan dispatch.
enum class SlcaAlgorithm { kScan, kSlca, kElca };

/// One conjunct of a parsed query: a term, optionally restricted to
/// elements with a given tag ("director:moreau" -> {"moreau","director"}).
struct QueryTerm {
  std::string term;
  std::string field;  ///< empty = unrestricted

  friend bool operator==(const QueryTerm& a, const QueryTerm& b) {
    return a.term == b.term && a.field == b.field;
  }
};

/// Splits a query string into conjuncts. Whitespace-separated chunks may
/// carry a "tag:" prefix restricting the match to elements of that tag;
/// each chunk tokenizes into one or more terms sharing the restriction.
std::vector<QueryTerm> ParseQuery(std::string_view query);

/// Reentrant variant for hot paths: parses into `*out` (cleared first,
/// capacity kept), so repeated queries reuse the vector.
void ParseQueryInto(std::string_view query, std::vector<QueryTerm>* out);

/// Immutable index tier of the search engine: the corpus document plus
/// every structure derived from it (node table, inferred schema,
/// inverted index, per-node category index). Built once, never mutated
/// afterwards — safe to share by const reference across any number of
/// concurrent query evaluations.
struct CorpusIndex {
  explicit CorpusIndex(xml::Document document,
                       SlcaAlgorithm slca = SlcaAlgorithm::kSlca);

  /// Adopts a table built elsewhere (the parser's fused build) instead of
  /// re-walking the document.
  CorpusIndex(xml::Document document, xml::NodeTable node_table,
              SlcaAlgorithm slca);

  xml::Document doc;
  xml::NodeTable table;
  entity::EntitySchema schema;
  InvertedIndex index;
  entity::DocumentCategoryIndex category_index;
  SlcaAlgorithm algorithm;
};

/// Query-time evaluation scratch: every container Search mutates lives
/// here, so evaluation against a const CorpusIndex is reentrant. Reused
/// across queries (cleared, capacity kept) — the decode pools and merge
/// scratch in particular keep their buffers, so a warmed session runs
/// the whole match pipeline without allocating.
struct SearchWorkspace {
  MatchLists lists;
  MergeLists sources;  // per-term posting sources, smallest-first
  std::vector<std::vector<xml::NodeId>> filtered_storage;
  std::unordered_set<const xml::Node*> seen;
  std::string key_scratch;  // schema-probe composition buffer
  std::vector<QueryTerm> terms;  // parsed query conjuncts (reused)
  std::vector<std::string_view> term_views;  // views into `terms` (ranking)
  std::vector<xml::NodeId> decode_pool;   // flat arena for scan fallback
  std::vector<xml::NodeId> field_scratch; // fielded-term decode buffer
  MergeScratch merge;  // merge-kernel state (block cache, heap, stack)

  /// Cancellation scope for queries run through this workspace. Set by
  /// the caller before Search (the serving layer installs the request's
  /// deadline + drain token); deliberately NOT touched by Reset() so the
  /// owner controls its lifetime across queries. Default: never expires.
  Cancellation cancel;

  void Reset() {
    lists.clear();
    sources.clear();
    filtered_storage.clear();
    seen.clear();
    terms.clear();
    term_views.clear();
    // decode_pool / field_scratch / merge keep their storage; every use
    // overwrites before reading.
  }
};

/// Search engine owning the corpus document, its node table, inferred
/// schema and inverted index. The engine itself is the immutable tier:
/// every Search overload is const and reentrant — per-query state lives
/// in a SearchWorkspace (an internal one is created per call when the
/// caller does not supply one).
class SearchEngine {
 public:
  /// Builds all derived structures for `doc`. O(document size).
  explicit SearchEngine(xml::Document doc,
                        SlcaAlgorithm algorithm = SlcaAlgorithm::kSlca);

  /// Adopts a fused-parse node table (see xml::ParseCorpus) — skips the
  /// table-building walk entirely.
  SearchEngine(xml::Document doc, xml::NodeTable table,
               SlcaAlgorithm algorithm = SlcaAlgorithm::kSlca);

  /// Evaluates a conjunctive keyword query. Returns results in document
  /// order; an empty vector when some keyword does not occur at all.
  /// Fails with kInvalidArgument when the query has no tokens.
  StatusOr<std::vector<SearchResult>> Search(std::string_view query) const;

  /// Reentrant variant: all mutable evaluation state lives in `*ws`
  /// (reused across calls; prefer this on hot / concurrent paths).
  StatusOr<std::vector<SearchResult>> Search(std::string_view query,
                                             SearchWorkspace* ws) const;

  /// Like Search, but orders results by relevance (see ranking.h).
  StatusOr<std::vector<SearchResult>> SearchRanked(
      std::string_view query) const;

  /// Reentrant ranked search: parses the query once into the workspace
  /// and ranks through string_view terms (no per-call term vector).
  StatusOr<std::vector<SearchResult>> SearchRanked(std::string_view query,
                                                   SearchWorkspace* ws) const;

  const CorpusIndex& corpus() const { return corpus_; }
  const xml::Document& document() const { return corpus_.doc; }
  const xml::NodeTable& table() const { return corpus_.table; }
  const entity::EntitySchema& schema() const { return corpus_.schema; }
  const InvertedIndex& index() const { return corpus_.index; }

  /// Per-node schema facts (categories, owners, subtree extents),
  /// precomputed once so the serve path reads flat arrays.
  const entity::DocumentCategoryIndex& category_index() const {
    return corpus_.category_index;
  }

 private:
  CorpusIndex corpus_;
};

/// Picks a human-readable title for a result subtree: the text of its
/// first <name>/<title>/<id> child if present, else a prefix of its text.
std::string InferTitle(const xml::Node& result_root);

/// One-line listing snippet for a result: its first `max_fields` leaf
/// children rendered as "tag: value | tag: value" (the demo's result
/// list shows "snippets, such as product names and prices").
std::string BriefSnippet(const xml::Node& result_root,
                         size_t max_fields = 3);

}  // namespace xsact::search

#endif  // XSACT_SEARCH_SEARCH_ENGINE_H_
