#include "engine/session.h"

#include "common/faultpoint.h"
#include "common/macros.h"
#include "common/timer.h"

namespace xsact::engine {

namespace {

// Hit-only latency site inside the per-root extraction loop — lets the
// chaos suite stall a comparison mid-flight to exercise cancellation.
const fault::FaultPointId kFaultSessionExtract = fault::RegisterFaultPoint(
    "session.extract", fault::FaultSiteKind::kHitOnly);

}  // namespace

StatusOr<std::vector<search::SearchResult>> Search(
    const CorpusSnapshot& snapshot, QuerySession* session,
    std::string_view query) {
  session->search.cancel = session->cancel;
  return snapshot.engine().Search(query, &session->search);
}

StatusOr<std::vector<search::SearchResult>> SearchRanked(
    const CorpusSnapshot& snapshot, QuerySession* session,
    std::string_view query) {
  session->search.cancel = session->cancel;
  return snapshot.engine().SearchRanked(query, &session->search);
}

StatusOr<ComparisonOutcome> CompareResults(
    const CorpusSnapshot& snapshot, QuerySession* session,
    const std::vector<const xml::Node*>& result_roots,
    const CompareOptions& options) {
  XSACT_RETURN_IF_ERROR(session->cancel.Check());
  if (result_roots.size() < 2) {
    return Status::InvalidArgument(
        "a comparison needs at least two results, got " +
        std::to_string(result_roots.size()));
  }

  // Optionally lift results to an enclosing entity (e.g. brand), then
  // deduplicate while preserving order. The buffers persist in the
  // session so repeated queries reuse their capacity.
  std::vector<const xml::Node*>& roots = session->roots;
  std::unordered_set<const xml::Node*>& seen = session->seen;
  roots.clear();
  seen.clear();
  for (const xml::Node* node : result_roots) {
    if (node == nullptr) {
      return Status::InvalidArgument("null result root");
    }
    // Extraction sweeps the snapshot's flat per-node columns, so a root
    // must be a node of the snapshot's document (lifting stays inside it).
    if (snapshot.table().IdOf(node) == xml::kInvalidNodeId) {
      return Status::InvalidArgument(
          "result root is not a node of the snapshot's document");
    }
    const xml::Node* lifted = node;
    if (!options.lift_results_to.empty()) {
      for (const xml::Node* cur = node; cur != nullptr; cur = cur->parent()) {
        if (cur->is_element() && cur->tag() == options.lift_results_to) {
          lifted = cur;
          break;
        }
      }
    }
    if (seen.insert(lifted).second) roots.push_back(lifted);
  }
  if (options.max_compared > 0 && roots.size() > options.max_compared) {
    roots.resize(options.max_compared);
  }
  if (roots.size() < 2) {
    return Status::InvalidArgument(
        "fewer than two distinct results after lifting");
  }

  // Result processor: entity identification + feature extraction. The
  // extractor is stateless (options only); its workspace is the session's.
  ComparisonOutcome outcome;
  outcome.catalog = std::make_unique<feature::FeatureCatalog>();
  const feature::FeatureExtractor extractor(options.extractor);
  std::vector<feature::ResultFeatures> features;
  features.reserve(roots.size());
  for (const xml::Node* root : roots) {
    XSACT_FAULT_HIT(kFaultSessionExtract);
    features.push_back(extractor.Extract(
        snapshot.table(), snapshot.category_index(),
        snapshot.table().IdOf(root), outcome.catalog.get(),
        &session->extraction, session->cancel));
    // Expired extraction returns partial features; never compare those.
    XSACT_RETURN_IF_ERROR(session->cancel.Check());
  }
  outcome.instance = core::ComparisonInstance::Build(
      std::move(features), outcome.catalog.get(), options.diff_threshold);
  XSACT_RETURN_IF_ERROR(session->cancel.Check());

  // DFS generation on the session's pooled selector instance.
  const core::DfsSelector& selector =
      session->selectors.Get(options.algorithm);
  Timer timer;
  outcome.dfss = selector.Select(outcome.instance, options.selector);
  outcome.select_seconds = timer.ElapsedSeconds();
  XSACT_RETURN_IF_ERROR(session->cancel.Check());

  outcome.table = table::BuildComparisonTable(outcome.instance, outcome.dfss);
  outcome.total_dod = outcome.table.total_dod;
  return outcome;
}

StatusOr<ComparisonOutcome> SearchAndCompare(const CorpusSnapshot& snapshot,
                                             QuerySession* session,
                                             std::string_view query,
                                             size_t max_results,
                                             const CompareOptions& options) {
  XSACT_ASSIGN_OR_RETURN(std::vector<search::SearchResult> results,
                         Search(snapshot, session, query));
  std::vector<const xml::Node*> roots;
  roots.reserve(results.size());
  for (const search::SearchResult& r : results) roots.push_back(r.root);
  // The cap is applied after lifting/deduplication inside CompareResults,
  // so "first 4 results" means four DISTINCT compared entities even when
  // several raw results lift into the same ancestor.
  CompareOptions effective = options;
  if (max_results > 0) effective.max_compared = max_results;
  return CompareResults(snapshot, session, roots, effective);
}

SessionPool::Lease& SessionPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && session_ != nullptr) {
      pool_->Release(std::move(session_));
    }
    pool_ = other.pool_;
    session_ = std::move(other.session_);
    other.pool_ = nullptr;
  }
  return *this;
}

SessionPool::Lease::~Lease() {
  if (pool_ != nullptr && session_ != nullptr) {
    pool_->Release(std::move(session_));
  }
}

SessionPool::Lease SessionPool::Acquire() {
  std::unique_ptr<QuerySession> session;
  {
    MutexLock lock(mu_);
    if (!idle_.empty()) {
      session = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (session == nullptr) session = std::make_unique<QuerySession>();
  return Lease(this, std::move(session));
}

size_t SessionPool::IdleCount() const {
  MutexLock lock(mu_);
  return idle_.size();
}

void SessionPool::Release(std::unique_ptr<QuerySession> session) {
  MutexLock lock(mu_);
  idle_.push_back(std::move(session));
}

}  // namespace xsact::engine
