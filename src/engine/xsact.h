// Xsact: the end-to-end system facade (paper Figure 3).
//
//   keywords -> SearchEngine -> results -> [user selects results]
//            -> Entity Identifier + Feature Extractor (result processor)
//            -> DFS generator (snippet / greedy / single-swap / multi-swap)
//            -> ComparisonTable
//
// This is the class a downstream application embeds; the examples/ and
// bench/ binaries are all built on it.
//
// Concurrency: Xsact is a thin adapter over the two-tier serving core —
// an immutable, thread-safe CorpusSnapshot (snapshot.h) plus a pool of
// per-query QuerySessions (session.h). Every method below is const and
// safe to call from any number of threads simultaneously: each call
// leases a session from the internal pool (reusing warmed-up workspaces)
// and runs against the shared snapshot, so concurrent callers never
// contend beyond the pool's pop/push. Outputs are byte-identical to
// single-threaded serving. For sustained multi-threaded load with
// batching and caching, use engine::QueryService (query_service.h),
// which shares the same snapshot.

#ifndef XSACT_ENGINE_XSACT_H_
#define XSACT_ENGINE_XSACT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "engine/session.h"
#include "engine/snapshot.h"

namespace xsact::engine {

/// End-to-end XSACT system over one XML corpus. See the concurrency note
/// in the file comment.
class Xsact {
 public:
  /// Parses `xml_text` and builds the search engine (index + schema).
  static StatusOr<Xsact> FromXml(
      std::string_view xml_text,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Loads and parses an XML corpus file (single pre-sized read).
  static StatusOr<Xsact> FromFile(
      const std::string& path,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Builds from an already-constructed document. `algorithm` selects the
  /// answer semantics (SLCA via scan or merge dispatch, or ELCA).
  explicit Xsact(
      xml::Document doc,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Wraps an existing snapshot (shared with other serving components).
  explicit Xsact(SnapshotPtr snapshot);

  /// Keyword search (document-order results; see SearchEngine::Search).
  StatusOr<std::vector<search::SearchResult>> Search(
      std::string_view query) const;

  /// Keyword search ordered by relevance (see search/ranking.h).
  StatusOr<std::vector<search::SearchResult>> SearchRanked(
      std::string_view query) const;

  /// Compares explicit result subtrees (the user's checkbox selection):
  /// nodes of this corpus's document, e.g. Search() results
  /// (kInvalidArgument otherwise).
  StatusOr<ComparisonOutcome> CompareResults(
      const std::vector<const xml::Node*>& result_roots,
      const CompareOptions& options = {}) const;

  /// Convenience: search, keep the first `max_results` results (0 = all),
  /// and compare them.
  StatusOr<ComparisonOutcome> SearchAndCompare(
      std::string_view query, size_t max_results = 0,
      const CompareOptions& options = {}) const;

  const search::SearchEngine& engine() const { return snapshot_->engine(); }

  /// The shared immutable snapshot this facade serves from.
  const SnapshotPtr& snapshot() const { return snapshot_; }

 private:
  SnapshotPtr snapshot_;
  /// Shared (not unique) so Xsact stays movable/copyable; copies serve
  /// from the same snapshot and session pool.
  std::shared_ptr<SessionPool> sessions_;
};

}  // namespace xsact::engine

#endif  // XSACT_ENGINE_XSACT_H_
