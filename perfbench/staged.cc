#include "staged.h"

#include <chrono>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/instance.h"
#include "core/selector.h"
#include "feature/catalog.h"
#include "feature/extractor.h"
#include "search/search_engine.h"
#include "table/comparison_table.h"
#include "table/renderer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Times one layer call and counts the allocations it makes.
class Span {
 public:
  Span(double* us, uint64_t* allocs)
      : us_(us), allocs_(allocs), allocs0_(ThreadAllocs()),
        start_(Clock::now()) {}
  ~Span() {
    *us_ += std::chrono::duration<double, std::micro>(Clock::now() - start_)
                .count();
    *allocs_ += ThreadAllocs() - allocs0_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* us_;
  uint64_t* allocs_;
  uint64_t allocs0_;
  Clock::time_point start_;
};

}  // namespace

xsact::StatusOr<StageSample> RunStaged(
    const xsact::engine::CorpusSnapshot& snapshot,
    xsact::engine::QuerySession* session, const MixQuery& q) {
  namespace engine = xsact::engine;
  StageSample s;

  // xsact_search.
  xsact::StatusOr<std::vector<xsact::search::SearchResult>> results = [&] {
    Span span(&s.search_us, &s.search_allocs);
    return engine::Search(snapshot, session, q.query);
  }();
  if (!results.ok()) return results.status();
  s.results = results->size();
  for (const xsact::search::QueryTerm& term :
       xsact::search::ParseQuery(q.query)) {
    s.postings += snapshot.index().Df(term.term);
  }

  // Lift and deduplicate exactly as engine::CompareResults does.
  std::vector<const xsact::xml::Node*> roots;
  std::unordered_set<const xsact::xml::Node*> seen;
  for (const xsact::search::SearchResult& r : *results) {
    const xsact::xml::Node* lifted = r.root;
    if (!q.options.lift_results_to.empty()) {
      for (const xsact::xml::Node* cur = r.root; cur != nullptr;
           cur = cur->parent()) {
        if (cur->is_element() && cur->tag() == q.options.lift_results_to) {
          lifted = cur;
          break;
        }
      }
    }
    if (seen.insert(lifted).second) roots.push_back(lifted);
  }
  const size_t cap =
      q.max_results > 0 ? q.max_results : q.options.max_compared;
  if (cap > 0 && roots.size() > cap) roots.resize(cap);
  if (roots.size() < 2) {
    return xsact::Status::InvalidArgument("query \"" + q.query +
                                          "\" has fewer than two results");
  }

  // xsact_feature.
  const xsact::xml::NodeTable& table = snapshot.table();
  auto catalog = std::make_unique<xsact::feature::FeatureCatalog>();
  const xsact::feature::FeatureExtractor extractor(q.options.extractor);
  std::vector<xsact::feature::ResultFeatures> features;
  features.reserve(roots.size());
  for (const xsact::xml::Node* root : roots) {
    const xsact::xml::NodeId id = table.IdOf(root);
    s.nodes_swept += static_cast<uint64_t>(table.subtree_end(id) - id);
    Span span(&s.extract_us, &s.feature_allocs);
    features.push_back(extractor.Extract(table, snapshot.category_index(), id,
                                         catalog.get(), &session->extraction,
                                         session->cancel));
  }

  // xsact_core.
  xsact::core::ComparisonInstance instance;
  std::vector<xsact::core::Dfs> dfss;
  {
    Span span(&s.instance_build_us, &s.core_allocs);
    instance = xsact::core::ComparisonInstance::Build(
        std::move(features), catalog.get(), q.options.diff_threshold);
  }
  {
    Span span(&s.select_us, &s.core_allocs);
    dfss = session->selectors.Get(q.options.algorithm)
               .Select(instance, q.options.selector);
  }

  // xsact_table.
  xsact::table::ComparisonTable comparison;
  {
    Span span(&s.table_build_us, &s.table_allocs);
    comparison = xsact::table::BuildComparisonTable(instance, dfss);
  }
  {
    Span span(&s.render_us, &s.table_allocs);
    s.json = xsact::table::RenderJson(comparison);
  }
  s.total_dod = comparison.total_dod;
  return s;
}

}  // namespace perfbench
