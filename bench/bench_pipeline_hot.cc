// bench_pipeline_hot — the full query→comparison-table serve path, new
// id-based pipeline vs a faithful in-file reproduction of the
// pre-overhaul path:
//
//   * string-keyed inverted index (two-pass build, a std::string
//     allocated per posting lookup),
//   * tuple-of-strings feature aggregation
//     (std::map<tuple<string,string,string>>, separate entity-count pass),
//   * scalar table / explainer / weights layer (per-cell SelectedTypes +
//     Differentiable scans, per-(result,entry) weight discovery).
//
// DFS selection and instance construction are shared (they were ported to
// the bitset substrate in the previous PR), so the rows isolate exactly
// this PR's serve-path delta. Measured end to end: SearchAndCompare
// (query parse → postings → SLCA → extraction → instance → selection →
// table) across three corpora at three document scales each.
//
// Equivalence gate (exit non-zero on failure): on every (corpus, scale)
// the two paths must produce byte-identical comparison tables,
// explanations, per-type weights (bit-for-bit doubles) and total DoD.
//
// Emits machine-readable BENCH_pipeline_hot.json, including a
// parse / index / extract / select / render stage breakdown of the new
// path at the largest product-reviews scale.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/dod.h"
#include "core/selector.h"
#include "core/weights.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "reference/dewey.h"
#include "table/comparison_table.h"
#include "table/explainer.h"
#include "table/renderer.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace xsact;

// ---------------------------------------------------------------------------
// Legacy substrate: the seed's serve path, reproduced verbatim.
// ---------------------------------------------------------------------------

namespace legacy {

/// The seed's inverted index: term -> vector hash map, two full node
/// table scans to build, one std::string constructed per lookup.
struct InvertedIndex {
  std::unordered_map<std::string, std::vector<xml::NodeId>> postings;
  std::vector<xml::NodeId> empty;

  static InvertedIndex Build(const xml::NodeTable& table) {
    InvertedIndex index;
    for (size_t id = 0; id < table.size(); ++id) {
      const xml::Node* node = table.node(static_cast<xml::NodeId>(id));
      if (!node->is_text()) continue;
      const xml::NodeId element_id =
          table.parent(static_cast<xml::NodeId>(id)) != xml::kInvalidNodeId
              ? table.parent(static_cast<xml::NodeId>(id))
              : static_cast<xml::NodeId>(id);
      for (const std::string& term : Tokenize(node->text())) {
        index.postings[term].push_back(element_id);
      }
    }
    for (size_t id = 0; id < table.size(); ++id) {
      const xml::Node* node = table.node(static_cast<xml::NodeId>(id));
      if (!node->is_element()) continue;
      for (const auto& [name, value] : node->attributes()) {
        (void)name;
        for (const std::string& term : Tokenize(value)) {
          index.postings[term].push_back(static_cast<xml::NodeId>(id));
        }
      }
    }
    for (auto& [term, list] : index.postings) {
      (void)term;
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return index;
  }

  const std::vector<xml::NodeId>& Postings(std::string_view term) const {
    auto it = postings.find(std::string(term));  // the seed's per-lookup alloc
    return it == postings.end() ? empty : it->second;
  }
};

/// The seed's SLCA kernel (Indexed Lookup Eager over Dewey labels): the
/// shortest list drives, binary searches find each anchor's pre-order
/// neighbours in the other lists, and the candidate label shrinks to its
/// longest common prefix with them. The seed's NodeTable stored one label
/// per node; here `labels` (reference::DeweyLabels, built once next to
/// the legacy index) stands in for that column.
std::vector<xml::NodeId> ComputeSlcaIndexed(
    const xml::NodeTable& table, const std::vector<reference::DeweyId>& labels,
    const search::MatchLists& lists) {
  using reference::DeweyId;
  std::vector<xml::NodeId> result;
  if (lists.empty()) return result;
  for (const auto& l : lists) {
    if (l.empty()) return result;
  }
  auto common_prefix_len = [](const DeweyId& a, const DeweyId& b) {
    const size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i]) ++i;
    return i;
  };

  // Drive the algorithm with the shortest list.
  size_t shortest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() < lists[shortest].size()) shortest = i;
  }

  std::vector<DeweyId> candidates;
  for (xml::NodeId d : lists[shortest]) {
    DeweyId u = labels[static_cast<size_t>(d)];
    for (size_t i = 0; i < lists.size(); ++i) {
      if (i == shortest) continue;
      const auto& list = lists[i];
      const auto it = std::lower_bound(list.begin(), list.end(), d);
      size_t best = 0;
      if (it != list.end()) {
        best = std::max(best, common_prefix_len(
                                  u, labels[static_cast<size_t>(*it)]));
      }
      if (it != list.begin()) {
        best = std::max(best, common_prefix_len(
                                  u, labels[static_cast<size_t>(*(it - 1))]));
      }
      if (best < u.depth()) u = DeweyId(u.begin(), best);
      if (u.empty()) break;  // already at the root; cannot get shallower
    }
    candidates.push_back(std::move(u));
  }

  // Keep only the deepest candidates: sort in pre-order; an ancestor is
  // always immediately dominated by its first descendant in the order.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<DeweyId> minimal;
  for (const auto& c : candidates) {
    while (!minimal.empty() && minimal.back().IsAncestorOrSelf(c)) {
      minimal.pop_back();
    }
    minimal.push_back(c);
  }
  for (const auto& m : minimal) {
    const xml::NodeId id = reference::FindByDewey(labels, m);
    if (id == xml::kInvalidNodeId) continue;
    if (table.node(id)->is_element()) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

/// The seed's SearchEngine::Search on top of the legacy index and the
/// seed's SLCA kernel (return-node inference shared with the new path).
std::vector<search::SearchResult> Search(
    const search::SearchEngine& engine, const InvertedIndex& index,
    const std::vector<reference::DeweyId>& labels, std::string_view query) {
  const std::vector<search::QueryTerm> terms = search::ParseQuery(query);
  if (terms.empty()) return {};
  const xml::NodeTable& table = engine.table();
  search::MatchLists lists;
  std::vector<std::vector<xml::NodeId>> filtered_storage;
  filtered_storage.reserve(terms.size());
  for (const search::QueryTerm& qt : terms) {
    const std::vector<xml::NodeId>& postings = index.Postings(qt.term);
    if (qt.field.empty()) {
      lists.push_back(search::PostingList(postings.data(), postings.size()));
    } else {
      std::vector<xml::NodeId>& filtered = filtered_storage.emplace_back();
      for (xml::NodeId id : postings) {
        if (table.node(id)->tag() == qt.field) filtered.push_back(id);
      }
      lists.push_back(search::PostingList(filtered.data(), filtered.size()));
    }
    if (lists.back().empty()) return {};
  }
  const std::vector<xml::NodeId> slcas =
      ComputeSlcaIndexed(table, labels, lists);

  std::vector<search::SearchResult> results;
  std::unordered_set<const xml::Node*> seen;
  for (xml::NodeId slca_id : slcas) {
    const xml::Node* slca = table.node(slca_id);
    const xml::Node* ret = slca;
    for (const xml::Node* cur = slca; cur != nullptr; cur = cur->parent()) {
      if (engine.schema().CategoryOf(*cur) == entity::NodeCategory::kEntity) {
        ret = cur;
        break;
      }
    }
    if (!seen.insert(ret).second) continue;
    search::SearchResult r;
    r.root = ret;
    r.root_id = table.IdOf(ret);
    r.slca = slca;
    r.title = search::InferTitle(*ret);
    results.push_back(std::move(r));
  }
  return results;
}

/// The seed's EntitySchema probe path: an std::map keyed by
/// (parent tag, tag) pairs, each CategoryOf constructing two std::string
/// copies, and OwningEntity re-walking ancestors per leaf. The schema
/// CONTENT is taken from the shared inference (identical categories); only
/// the lookup machinery is the seed's.
struct Schema {
  std::map<std::pair<std::string, std::string>, entity::NodeCategory>
      categories;

  explicit Schema(const entity::EntitySchema& schema) {
    for (const auto& [key, category] : schema.Entries()) {
      categories.emplace(key, category);
    }
  }

  entity::NodeCategory CategoryOf(const xml::Node& node) const {
    if (node.is_text()) return entity::NodeCategory::kValue;
    const xml::Node* parent = node.parent();
    if (parent == nullptr) {
      return node.IsLeafElement() ? entity::NodeCategory::kAttribute
                                  : entity::NodeCategory::kConnection;
    }
    auto it = categories.find(
        {std::string(parent->tag()), std::string(node.tag())});
    if (it != categories.end()) return it->second;
    return node.IsLeafElement() ? entity::NodeCategory::kAttribute
                                : entity::NodeCategory::kConnection;
  }

  const xml::Node* OwningEntity(const xml::Node& node,
                                const xml::Node& within) const {
    const xml::Node* cur = &node;
    while (cur != nullptr) {
      if (cur == &within) return cur;
      if (cur->is_element() &&
          CategoryOf(*cur) == entity::NodeCategory::kEntity) {
        return cur;
      }
      cur = cur->parent();
    }
    return &within;
  }
};

/// The seed's extractor: recursive entity-count pass plus
/// std::map<tuple<string,string,string>> observation aggregation.
struct ExtractionState {
  std::unordered_map<std::string, double> cardinality;
  std::map<std::tuple<std::string, std::string, std::string>, double> obs;
};

void CountEntities(const xml::Node& node, const xml::Node& root,
                   const Schema& schema, ExtractionState* state) {
  if (node.is_element() &&
      (&node == &root ||
       schema.CategoryOf(node) == entity::NodeCategory::kEntity)) {
    state->cardinality[std::string(node.tag())] += 1;
  }
  for (const xml::Node* child : node.children()) {
    CountEntities(*child, root, schema, state);
  }
}

feature::ResultFeatures Extract(const xml::Node& result_root,
                                const Schema& schema,
                                feature::FeatureCatalog* catalog,
                                const feature::ExtractorOptions& options) {
  ExtractionState state;
  CountEntities(result_root, result_root, schema, &state);

  std::vector<const xml::Node*> stack = {&result_root};
  while (!stack.empty()) {
    const xml::Node* node = stack.back();
    stack.pop_back();
    for (const xml::Node* child : node->children()) {
      if (child->is_element()) stack.push_back(child);
    }
    if (!node->is_element() || !node->IsLeafElement()) continue;
    if (node == &result_root) continue;

    std::string value = node->InnerText();
    if (value.empty() && options.skip_empty_values) continue;
    if (options.fold_value_case) value = ToLower(value);
    if (value.size() > options.max_value_length) {
      value.resize(options.max_value_length);
    }

    const entity::NodeCategory category = schema.CategoryOf(*node);
    const xml::Node* owner = schema.OwningEntity(*node, result_root);
    const std::string entity_tag(owner->tag());

    if (category == entity::NodeCategory::kMultiAttribute) {
      state.obs[{entity_tag, std::string(node->tag()) + ": " + value, "yes"}] += 1;
    } else {
      state.obs[{entity_tag, std::string(node->tag()), value}] += 1;
    }
  }

  feature::ResultFeatures features;
  features.set_label(search::InferTitle(result_root));
  for (const auto& [key, count] : state.obs) {
    const auto& [entity_tag, attribute, value] = key;
    const feature::TypeId type = catalog->InternType(entity_tag, attribute);
    const feature::ValueId value_id = catalog->InternValue(value);
    auto it = state.cardinality.find(entity_tag);
    const double cardinality = it == state.cardinality.end() ? 1 : it->second;
    features.AddObservation(type, value_id, count, cardinality);
  }
  features.Seal();
  return features;
}

/// The seed's table builder: std::map selected-type union, per-cell
/// TypeStats hash probes, all-pairs Differentiable scans.
table::ComparisonTable BuildComparisonTable(
    const core::ComparisonInstance& instance,
    const std::vector<core::Dfs>& dfss) {
  const int n = instance.num_results();
  table::ComparisonTable out;
  for (int i = 0; i < n; ++i) {
    const std::string& label = instance.result(i).label();
    out.headers.push_back(label.empty() ? "result " + std::to_string(i + 1)
                                        : label);
  }
  out.total_dod = core::TotalDod(instance, dfss);

  std::map<feature::TypeId, std::vector<int>> selected_by;
  for (int i = 0; i < n; ++i) {
    for (feature::TypeId t :
         dfss[static_cast<size_t>(i)].SelectedTypes(instance)) {
      selected_by[t].push_back(i);
    }
  }

  const auto& catalog = instance.catalog();
  for (const auto& [type_id, selectors] : selected_by) {
    table::TableRow row;
    row.type_id = type_id;
    row.label = catalog.TypeName(type_id);
    row.selected_in = static_cast<int>(selectors.size());
    row.cells.assign(static_cast<size_t>(n), "-");
    for (int i : selectors) {
      const feature::TypeStats* stats = instance.result(i).Find(type_id);
      if (stats == nullptr) continue;
      const feature::ValueId v = stats->DominantValue();
      std::string cell =
          v == feature::kInvalidValueId ? "?" : catalog.ValueOf(v);
      cell += " (" +
              FormatDouble(100.0 * stats->RelativeOccurrenceOf(v), 0) + "%)";
      row.cells[static_cast<size_t>(i)] = std::move(cell);
    }
    for (size_t a = 0; a < selectors.size() && !row.differentiating; ++a) {
      for (size_t b = a + 1; b < selectors.size(); ++b) {
        if (instance.Differentiable(type_id, selectors[a], selectors[b])) {
          row.differentiating = true;
          break;
        }
      }
    }
    out.rows.push_back(std::move(row));
  }

  std::stable_sort(out.rows.begin(), out.rows.end(),
                   [](const table::TableRow& a, const table::TableRow& b) {
                     if (a.differentiating != b.differentiating) {
                       return a.differentiating;
                     }
                     if (a.selected_in != b.selected_in) {
                       return a.selected_in > b.selected_in;
                     }
                     return a.label < b.label;
                   });
  return out;
}

std::string LabelOf(const core::ComparisonInstance& instance, int i) {
  const std::string& label = instance.result(i).label();
  return label.empty() ? "result " + std::to_string(i + 1) : label;
}

std::string Percent(double rel) {
  return FormatDouble(100.0 * rel, 0) + "%";
}

/// The seed's explainer: std::map union + all-pairs Differentiable scans.
std::vector<table::Explanation> ExplainDifferences(
    const core::ComparisonInstance& instance,
    const std::vector<core::Dfs>& dfss, size_t max_statements) {
  const int n = instance.num_results();
  const auto& catalog = instance.catalog();

  std::map<feature::TypeId, std::vector<int>> selected_by;
  for (int i = 0; i < n; ++i) {
    for (feature::TypeId t :
         dfss[static_cast<size_t>(i)].SelectedTypes(instance)) {
      selected_by[t].push_back(i);
    }
  }

  std::vector<table::Explanation> out;
  for (const auto& [type_id, holders] : selected_by) {
    int pairs = 0;
    int best_a = -1;
    int best_b = -1;
    double best_contrast = -1;
    for (size_t x = 0; x < holders.size(); ++x) {
      for (size_t y = x + 1; y < holders.size(); ++y) {
        const int a = holders[x];
        const int b = holders[y];
        if (!instance.Differentiable(type_id, a, b)) continue;
        ++pairs;
        const feature::TypeStats* sa = instance.result(a).Find(type_id);
        const feature::TypeStats* sb = instance.result(b).Find(type_id);
        const double contrast =
            std::abs(sa->RelativeOccurrenceOf(sa->DominantValue()) -
                     sb->RelativeOccurrenceOf(sb->DominantValue())) +
            (sa->DominantValue() != sb->DominantValue() ? 1.0 : 0.0);
        if (contrast > best_contrast) {
          best_contrast = contrast;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (pairs == 0) continue;

    const feature::TypeStats* sa = instance.result(best_a).Find(type_id);
    const feature::TypeStats* sb = instance.result(best_b).Find(type_id);
    const feature::ValueId va = sa->DominantValue();
    const feature::ValueId vb = sb->DominantValue();
    table::Explanation e;
    e.type_id = type_id;
    e.pairs_differentiated = pairs;
    const std::string attr = catalog.AttributeOf(type_id);
    if (va != vb) {
      e.text = attr + " is \"" + catalog.ValueOf(va) + "\" for " +
               LabelOf(instance, best_a) + " but \"" + catalog.ValueOf(vb) +
               "\" for " + LabelOf(instance, best_b);
    } else {
      e.text = attr + " holds for " + Percent(sa->RelativeOccurrenceOf(va)) +
               " of " + LabelOf(instance, best_a) + "'s " +
               catalog.EntityOf(type_id) + "s vs " +
               Percent(sb->RelativeOccurrenceOf(vb)) + " of " +
               LabelOf(instance, best_b) + "'s";
    }
    out.push_back(std::move(e));
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const table::Explanation& a, const table::Explanation& b) {
                     return a.pairs_differentiated > b.pairs_differentiated;
                   });
  if (out.size() > max_statements) out.resize(max_statements);
  return out;
}

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

double NormalizedEntropy(const std::map<feature::ValueId, int>& histogram,
                         int total) {
  if (histogram.size() <= 1 || total <= 0) return 0.0;
  double h = 0.0;
  for (const auto& [value, count] : histogram) {
    (void)value;
    const double p = static_cast<double>(count) / total;
    if (p > 0) h -= p * std::log(p);
  }
  return h / std::log(static_cast<double>(histogram.size()));
}

double Interestingness(const core::ComparisonInstance& instance,
                       feature::TypeId type) {
  std::map<feature::ValueId, int> dominant_values;
  double min_rel = 1.0;
  double max_rel = 0.0;
  int carriers = 0;
  for (int i = 0; i < instance.num_results(); ++i) {
    const feature::TypeStats* stats = instance.result(i).Find(type);
    if (stats == nullptr) continue;
    ++carriers;
    const feature::ValueId v = stats->DominantValue();
    ++dominant_values[v];
    const double rel = stats->RelativeOccurrenceOf(v);
    min_rel = std::min(min_rel, rel);
    max_rel = std::max(max_rel, rel);
  }
  if (carriers <= 1) return 0.0;
  const double value_diversity = NormalizedEntropy(dominant_values, carriers);
  const double share_spread = Clamp01(max_rel - min_rel);
  return std::max(value_diversity, share_spread);
}

/// The seed's interestingness weight table, as TypeId -> weight.
std::map<feature::TypeId, double> ComputeWeights(
    const core::ComparisonInstance& instance) {
  std::map<feature::TypeId, double> weights;
  for (int i = 0; i < instance.num_results(); ++i) {
    for (const core::Entry& e : instance.entries(i)) {
      if (weights.count(e.type_id) > 0) continue;
      weights.emplace(e.type_id,
                      core::TypeWeights::kFloor +
                          (1.0 - core::TypeWeights::kFloor) *
                              Interestingness(instance, e.type_id));
    }
  }
  return weights;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

/// One workload: a corpus at one scale plus the query run against it.
struct Workload {
  std::string corpus;
  std::string scale;  // "S" / "M" / "L"
  bool largest = false;
  std::string query;
  std::string lift_results_to;
  int size_bound = 6;
  xml::Document doc;
};

/// Everything a serve produces; compared field by field across paths.
struct Served {
  table::ComparisonTable table;
  std::vector<table::Explanation> explanations;
  std::vector<double> weights;  // per catalog TypeId; absent types read 1.0
  int64_t total_dod = 0;
  int num_results = 0;
  size_t num_types = 0;
};

engine::CompareOptions OptionsFor(const Workload& w) {
  engine::CompareOptions options;
  options.selector.size_bound = w.size_bound;
  options.lift_results_to = w.lift_results_to;
  return options;
}

/// New path: the production SearchAndCompare plus explanation + weight
/// rendering.
Served ServeNew(const engine::Xsact& xsact, const Workload& w,
                bool with_render) {
  auto outcome = xsact.SearchAndCompare(w.query, 0, OptionsFor(w));
  if (!outcome.ok()) {
    std::fprintf(stderr, "new serve failed: %s\n",
                 outcome.status().ToString().c_str());
    std::exit(1);
  }
  Served s;
  s.total_dod = outcome->total_dod;
  s.num_results = outcome->instance.num_results();
  s.num_types = outcome->instance.NumTypesTotal();
  if (with_render) {
    s.explanations = table::ExplainDifferences(outcome->instance,
                                               outcome->dfss, 5);
    const core::TypeWeights weights = core::TypeWeights::Compute(
        outcome->instance, core::WeightScheme::kInterestingness);
    for (feature::TypeId t = 0;
         t < static_cast<feature::TypeId>(outcome->catalog->NumTypes()); ++t) {
      s.weights.push_back(weights.Of(t));
    }
  }
  s.table = std::move(outcome->table);
  return s;
}

/// Legacy path: same pipeline wired from the seed's components (search on
/// the string-keyed index with the seed's Dewey-label SLCA kernel,
/// tuple-map extraction, scalar rendering); instance construction and DFS
/// selection are shared.
Served ServeLegacy(const engine::Xsact& xsact,
                   const legacy::InvertedIndex& index,
                   const std::vector<reference::DeweyId>& labels,
                   const legacy::Schema& scalar_schema, const Workload& w,
                   bool with_render) {
  const search::SearchEngine& engine = xsact.engine();
  const std::vector<search::SearchResult> results =
      legacy::Search(engine, index, labels, w.query);

  // Lift + dedup (CompareResults' pre-processing, shared logic).
  std::vector<const xml::Node*> roots;
  std::unordered_set<const xml::Node*> seen;
  for (const search::SearchResult& r : results) {
    const xml::Node* lifted = r.root;
    if (!w.lift_results_to.empty()) {
      for (const xml::Node* cur = r.root; cur != nullptr;
           cur = cur->parent()) {
        if (cur->is_element() && cur->tag() == w.lift_results_to) {
          lifted = cur;
          break;
        }
      }
    }
    if (seen.insert(lifted).second) roots.push_back(lifted);
  }

  feature::FeatureCatalog catalog;
  std::vector<feature::ResultFeatures> features;
  features.reserve(roots.size());
  for (const xml::Node* root : roots) {
    features.push_back(
        legacy::Extract(*root, scalar_schema, &catalog, {}));
  }
  const core::ComparisonInstance instance =
      core::ComparisonInstance::Build(std::move(features), &catalog, 0.10);

  core::SelectorOptions selector_options;
  selector_options.size_bound = w.size_bound;
  const std::vector<core::Dfs> dfss =
      core::MakeSelector(core::SelectorKind::kMultiSwap)
          ->Select(instance, selector_options);

  Served s;
  s.table = legacy::BuildComparisonTable(instance, dfss);
  s.total_dod = s.table.total_dod;
  s.num_results = instance.num_results();
  s.num_types = instance.NumTypesTotal();
  if (with_render) {
    s.explanations = legacy::ExplainDifferences(instance, dfss, 5);
    const std::map<feature::TypeId, double> weights =
        legacy::ComputeWeights(instance);
    for (feature::TypeId t = 0;
         t < static_cast<feature::TypeId>(catalog.NumTypes()); ++t) {
      auto it = weights.find(t);
      s.weights.push_back(it == weights.end() ? 1.0 : it->second);
    }
  }
  return s;
}

bool SameTable(const table::ComparisonTable& a,
               const table::ComparisonTable& b) {
  if (a.headers != b.headers || a.total_dod != b.total_dod ||
      a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    const table::TableRow& x = a.rows[r];
    const table::TableRow& y = b.rows[r];
    if (x.type_id != y.type_id || x.label != y.label || x.cells != y.cells ||
        x.selected_in != y.selected_in ||
        x.differentiating != y.differentiating) {
      return false;
    }
  }
  return true;
}

bool SameServe(const Served& a, const Served& b, const char* what) {
  bool ok = true;
  if (!SameTable(a.table, b.table)) {
    std::fprintf(stderr, "FAIL %s: comparison tables diverged\n", what);
    ok = false;
  }
  if (a.explanations.size() != b.explanations.size()) {
    std::fprintf(stderr, "FAIL %s: explanation counts diverged\n", what);
    ok = false;
  } else {
    for (size_t e = 0; e < a.explanations.size(); ++e) {
      if (a.explanations[e].type_id != b.explanations[e].type_id ||
          a.explanations[e].text != b.explanations[e].text ||
          a.explanations[e].pairs_differentiated !=
              b.explanations[e].pairs_differentiated) {
        std::fprintf(stderr, "FAIL %s: explanation %zu diverged\n", what, e);
        ok = false;
      }
    }
  }
  if (a.weights != b.weights) {  // exact doubles: bit-for-bit port
    std::fprintf(stderr, "FAIL %s: weights diverged\n", what);
    ok = false;
  }
  if (a.total_dod != b.total_dod) {
    std::fprintf(stderr, "FAIL %s: total DoD diverged\n", what);
    ok = false;
  }
  return ok;
}

struct Row {
  std::string corpus;
  std::string scale;
  bool largest = false;
  size_t doc_nodes = 0;
  int n = 0;
  size_t types = 0;
  int64_t dod = 0;
  double legacy_ms = 0;
  double new_ms = 0;
  double legacy_index_ms = 0;
  double new_index_ms = 0;

  double Speedup() const { return new_ms > 0 ? legacy_ms / new_ms : 0; }
  double IndexSpeedup() const {
    return new_index_ms > 0 ? legacy_index_ms / new_index_ms : 0;
  }
};

/// Stage breakdown of the new path (largest product-reviews scale).
struct Stages {
  double parse_ms = 0;
  double index_ms = 0;
  double extract_ms = 0;
  double select_ms = 0;
  double render_ms = 0;
};

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;
  {
    const int scales[] = {16, 48, 96};
    const char* names[] = {"S", "M", "L"};
    for (int s = 0; s < 3; ++s) {
      data::ProductReviewsConfig config;
      config.num_products = scales[s];
      Workload w;
      w.corpus = "product_reviews";
      w.scale = names[s];
      w.largest = s == 2;
      w.query = "gps";
      w.size_bound = 6;
      w.doc = data::GenerateProductReviews(config);
      workloads.push_back(std::move(w));
    }
  }
  {
    const int scales[] = {1, 2, 4};
    const char* names[] = {"S", "M", "L"};
    for (int s = 0; s < 3; ++s) {
      data::OutdoorRetailerConfig config;
      config.min_products = 18 * scales[s];
      config.max_products = 60 * scales[s];
      Workload w;
      w.corpus = "outdoor_retailer";
      w.scale = names[s];
      w.largest = s == 2;
      w.query = "men jackets";
      w.lift_results_to = "brand";
      w.size_bound = 6;
      w.doc = data::GenerateOutdoorRetailer(config);
      workloads.push_back(std::move(w));
    }
  }
  {
    const int scales[] = {1, 2, 4};
    const char* names[] = {"S", "M", "L"};
    const std::vector<data::QuerySpec> queries = data::MovieQueryWorkload();
    const data::QuerySpec& spec = queries.back();  // the largest query
    for (int s = 0; s < 3; ++s) {
      data::MoviesConfig config;
      for (int& size : config.franchise_sizes) size *= scales[s];
      Workload w;
      w.corpus = "movies";
      w.scale = names[s];
      w.largest = s == 2;
      w.query = spec.query;
      w.size_bound = spec.size_bound;
      w.doc = data::GenerateMovies(config);
      workloads.push_back(std::move(w));
    }
  }
  return workloads;
}

}  // namespace

int main() {
  bench::Header("pipeline_hot",
                "end-to-end SearchAndCompare: id-based serve path vs the "
                "seed's string-keyed pipeline");

  // Best-of-N timing: the serve path is deterministic, so the minimum is
  // the least-noisy estimate of its true cost (medians wobble with
  // machine load and would flake the 3x gate).
  const int repeats = 9;
  bool gate_ok = true;
  std::vector<Row> rows;
  Stages stages;

  std::printf("%-17s %-2s %8s %4s %6s %6s | %11s %11s %8s | %8s\n", "corpus",
              "sc", "nodes", "n", "types", "DoD", "legacy-ms", "new-ms",
              "speedup", "idx-spd");
  for (Workload& w : BuildWorkloads()) {
    const size_t doc_nodes = w.doc.root()->SubtreeSize();

    // Build both engines; inverted-index construction timed separately on
    // the same node table (startup cost, not part of the per-query serve
    // path).
    const engine::Xsact xsact(std::move(w.doc));
    const double new_index_ms =
        bench::TimeRepeated(repeats, [&] {
          search::InvertedIndex::Build(xsact.engine().table());
        }).min() * 1e3;
    const double legacy_index_ms =
        bench::TimeRepeated(repeats, [&] {
          legacy::InvertedIndex::Build(xsact.engine().table());
        }).min() * 1e3;
    const legacy::InvertedIndex legacy_index =
        legacy::InvertedIndex::Build(xsact.engine().table());
    // The seed's per-node Dewey column, for the seed's SLCA kernel.
    const std::vector<reference::DeweyId> legacy_labels =
        reference::DeweyLabels(xsact.engine().table());
    const legacy::Schema legacy_schema(xsact.engine().schema());

    // Equivalence gate: full serve (table + explanations + weights).
    const Served new_serve = ServeNew(xsact, w, /*with_render=*/true);
    const Served legacy_serve =
        ServeLegacy(xsact, legacy_index, legacy_labels, legacy_schema, w,
                    /*with_render=*/true);
    const std::string what = w.corpus + "/" + w.scale;
    if (!SameServe(new_serve, legacy_serve, what.c_str())) gate_ok = false;

    // Timed region: end-to-end SearchAndCompare (query -> table).
    Row row;
    row.corpus = w.corpus;
    row.scale = w.scale;
    row.largest = w.largest;
    row.doc_nodes = doc_nodes;
    row.n = new_serve.num_results;
    row.types = new_serve.num_types;
    row.dod = new_serve.total_dod;
    row.legacy_index_ms = legacy_index_ms;
    row.new_index_ms = new_index_ms;
    row.legacy_ms =
        bench::TimeRepeated(repeats, [&] {
          ServeLegacy(xsact, legacy_index, legacy_labels, legacy_schema, w,
                      /*with_render=*/false);
        }).min() * 1e3;
    row.new_ms = bench::TimeRepeated(repeats, [&] {
                   ServeNew(xsact, w, /*with_render=*/false);
                 }).min() * 1e3;

    std::printf("%-17s %-2s %8zu %4d %6zu %6lld | %11.3f %11.3f %7.2fx | %7.2fx\n",
                row.corpus.c_str(), row.scale.c_str(), row.doc_nodes, row.n,
                row.types, static_cast<long long>(row.dod), row.legacy_ms,
                row.new_ms, row.Speedup(), row.IndexSpeedup());
    rows.push_back(row);

    // Stage breakdown on the largest product-reviews scale.
    if (w.corpus == "product_reviews" && w.largest) {
      const std::string xml_text =
          xml::WriteDocument(xsact.engine().document());
      stages.parse_ms = bench::TimeRepeated(repeats, [&] {
                          auto doc = xml::Parse(xml_text);
                          if (!doc.ok()) std::exit(1);
                        }).min() * 1e3;
      auto parsed = xml::Parse(xml_text);
      stages.index_ms = bench::TimeRepeated(repeats, [&] {
                          const xml::NodeTable table =
                              xml::NodeTable::Build(*parsed);
                          search::InvertedIndex::Build(table);
                        }).min() * 1e3;
      auto results = xsact.Search(w.query);
      std::vector<xml::NodeId> root_ids;
      for (const auto& r : *results) root_ids.push_back(r.root_id);
      feature::FeatureExtractor extractor;
      feature::ExtractionScratch scratch;
      stages.extract_ms =
          bench::TimeRepeated(repeats, [&] {
            feature::FeatureCatalog catalog;
            std::vector<feature::ResultFeatures> features;
            for (const xml::NodeId root_id : root_ids) {
              features.push_back(extractor.Extract(
                  xsact.engine().table(), xsact.engine().category_index(),
                  root_id, &catalog, &scratch));
            }
          }).min() * 1e3;
      auto outcome = xsact.SearchAndCompare(w.query, 0, OptionsFor(w));
      stages.select_ms = outcome->select_seconds * 1e3;
      stages.render_ms =
          bench::TimeRepeated(repeats, [&] {
            table::BuildComparisonTable(outcome->instance, outcome->dfss);
            table::ExplainDifferences(outcome->instance, outcome->dfss, 5);
            core::TypeWeights::Compute(outcome->instance,
                                       core::WeightScheme::kInterestingness);
          }).min() * 1e3;
    }
  }
  bench::Rule();
  std::printf("stage breakdown (new path, product_reviews/L): parse %.2f ms, "
              "index %.2f ms, extract %.2f ms, select %.2f ms, render %.2f "
              "ms\n",
              stages.parse_ms, stages.index_ms, stages.extract_ms,
              stages.select_ms, stages.render_ms);

  // Gate: >= 3x end-to-end at every corpus's largest scale.
  for (const Row& row : rows) {
    if (row.largest && row.Speedup() < 3.0) {
      std::fprintf(stderr, "FAIL %s/%s: end-to-end speedup %.2fx < 3x\n",
                   row.corpus.c_str(), row.scale.c_str(), row.Speedup());
      gate_ok = false;
    }
  }

  FILE* json = std::fopen("BENCH_pipeline_hot.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"pipeline_hot\",\n  \"rows\": [\n");
    for (size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      std::fprintf(
          json,
          "    {\"corpus\": \"%s\", \"scale\": \"%s\", \"doc_nodes\": %zu, "
          "\"n\": %d, \"types\": %zu, \"dod\": %lld, \"legacy_ms\": %.4f, "
          "\"new_ms\": %.4f, \"speedup\": %.2f, \"legacy_index_ms\": %.4f, "
          "\"new_index_ms\": %.4f, \"index_speedup\": %.2f}%s\n",
          row.corpus.c_str(), row.scale.c_str(), row.doc_nodes, row.n,
          row.types, static_cast<long long>(row.dod), row.legacy_ms,
          row.new_ms, row.Speedup(), row.legacy_index_ms, row.new_index_ms,
          row.IndexSpeedup(), r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"stages_new_path_ms\": {\"parse\": %.3f, "
                 "\"index\": %.3f, \"extract\": %.3f, \"select\": %.3f, "
                 "\"render\": %.3f},\n  \"gate_ok\": %s\n}\n",
                 stages.parse_ms, stages.index_ms, stages.extract_ms,
                 stages.select_ms, stages.render_ms,
                 gate_ok ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_pipeline_hot.json\n");
  }

  if (!gate_ok) return 1;
  std::printf("equivalence gate OK: identical tables, explanations, weights "
              "and DoD on every (corpus, scale); >= 3x at every largest "
              "scale\n");
  return 0;
}
