// QuerySession: the per-query mutable tier of the XSACT serving stack.
//
// Everything a query mutates — search evaluation scratch, the feature
// extractor's workspace, pooled selector instances, lift/dedup buffers —
// lives in one QuerySession. A session owns no corpus state: serve calls
// pair it with an immutable CorpusSnapshot (snapshot.h), so
//
//   * one snapshot + N sessions  =  N concurrent queries, lock-free;
//   * session reuse across sequential queries keeps every hash table and
//     buffer warm (cleared, capacity kept) without changing any output.
//
// SessionPool hands out sessions RAII-style for callers (like the Xsact
// facade) that don't manage per-thread sessions themselves.

#ifndef XSACT_ENGINE_SESSION_H_
#define XSACT_ENGINE_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/statusor.h"
#include "core/selector.h"
#include "engine/snapshot.h"
#include "feature/extractor.h"
#include "search/search_engine.h"
#include "table/comparison_table.h"

namespace xsact::engine {

/// Options for a comparison request.
struct CompareOptions {
  /// DFS generation algorithm; the paper's default is multi-swap.
  core::SelectorKind algorithm = core::SelectorKind::kMultiSwap;
  /// Size bound L and iteration limits.
  core::SelectorOptions selector;
  /// Differentiability threshold x (paper: empirically 10%).
  double diff_threshold = 0.10;
  /// Feature extraction knobs.
  feature::ExtractorOptions extractor;
  /// When non-empty, lift every search result to its nearest ancestor
  /// with this tag before comparing (e.g. compare the BRANDS owning the
  /// matched products — the paper's Outdoor Retailer scenario).
  std::string lift_results_to;
  /// Cap on the number of compared results, applied AFTER lifting and
  /// deduplication (0 = compare all distinct results). SearchAndCompare's
  /// max_results parameter populates this field.
  size_t max_compared = 0;
};

/// The outcome of one comparison: the problem instance, the chosen DFSs,
/// and the rendered table model. Owns the feature catalog the instance
/// points into, so it is self-contained and movable. Once built it is
/// never mutated by the serve stack, so a shared_ptr<const
/// ComparisonOutcome> (the QueryService cache's unit) is safe to read
/// from any number of threads.
struct ComparisonOutcome {
  std::unique_ptr<feature::FeatureCatalog> catalog;
  core::ComparisonInstance instance;
  std::vector<core::Dfs> dfss;
  table::ComparisonTable table;
  int64_t total_dod = 0;
  /// Wall time spent inside the DFS selection algorithm only.
  double select_seconds = 0;
};

/// All per-query mutable state (see file comment). Default-constructed
/// sessions are ready to serve; a session must not be used by two
/// queries concurrently, but is freely reusable sequentially.
class QuerySession {
 public:
  /// Search evaluation scratch (posting decode pools, merge-kernel block
  /// cache/heap/stack, posting filters, dedup set, schema-probe
  /// composition buffer). Warmed by the first query; later queries run
  /// the match pipeline allocation-free.
  search::SearchWorkspace search;
  /// Feature-extraction workspace (local interners, aggregation tables).
  feature::ExtractionScratch extraction;
  /// Pooled DFS selector instances, one per algorithm kind.
  core::SelectorSet selectors;
  /// Lift/dedup buffers of CompareResults.
  std::vector<const xml::Node*> roots;
  std::unordered_set<const xml::Node*> seen;
  /// Cancellation scope for queries served through this session. The
  /// serving layer installs the request's deadline + drain token before
  /// evaluating and resets it afterwards; the Search/Compare entry points
  /// propagate it into the kernels and the extractor. Default: never
  /// expires, so direct (non-service) callers are unaffected.
  Cancellation cancel;
};

/// Keyword search against a snapshot; all mutable state in *session.
StatusOr<std::vector<search::SearchResult>> Search(
    const CorpusSnapshot& snapshot, QuerySession* session,
    std::string_view query);

/// Ranked keyword search; the query is parsed once into the session's
/// workspace and ranking reads the terms as string_views in place.
StatusOr<std::vector<search::SearchResult>> SearchRanked(
    const CorpusSnapshot& snapshot, QuerySession* session,
    std::string_view query);

/// Compares explicit result subtrees (the user's checkbox selection).
/// Every root must be a node of the snapshot's document (kInvalidArgument
/// otherwise). Reentrant across (snapshot, session) pairs; byte-identical
/// output to the single-threaded path for any session, fresh or reused.
StatusOr<ComparisonOutcome> CompareResults(
    const CorpusSnapshot& snapshot, QuerySession* session,
    const std::vector<const xml::Node*>& result_roots,
    const CompareOptions& options = {});

/// Search, keep the first `max_results` distinct results (0 = all), and
/// compare them.
StatusOr<ComparisonOutcome> SearchAndCompare(const CorpusSnapshot& snapshot,
                                             QuerySession* session,
                                             std::string_view query,
                                             size_t max_results = 0,
                                             const CompareOptions& options = {});

/// Thread-safe pool of QuerySessions: Acquire() pops an idle session (or
/// creates one when none is idle); the returned lease gives it back on
/// destruction. Repeated queries therefore reuse warmed-up workspaces
/// instead of reconstructing them.
class SessionPool {
 public:
  /// RAII handle to a pooled session. Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    QuerySession* get() const { return session_.get(); }
    QuerySession* operator->() const { return session_.get(); }
    QuerySession& operator*() const { return *session_; }

   private:
    friend class SessionPool;
    Lease(SessionPool* pool, std::unique_ptr<QuerySession> session)
        : pool_(pool), session_(std::move(session)) {}

    SessionPool* pool_;
    std::unique_ptr<QuerySession> session_;
  };

  SessionPool() = default;
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Pops an idle session, or creates a fresh one when the pool is empty.
  Lease Acquire() XSACT_EXCLUDES(mu_);

  /// Number of sessions currently idle in the pool.
  size_t IdleCount() const XSACT_EXCLUDES(mu_);

 private:
  void Release(std::unique_ptr<QuerySession> session) XSACT_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<QuerySession>> idle_ XSACT_GUARDED_BY(mu_);
};

}  // namespace xsact::engine

#endif  // XSACT_ENGINE_SESSION_H_
