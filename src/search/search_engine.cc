#include "search/search_engine.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <unordered_set>

#include "common/faultpoint.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "search/ranking.h"

namespace xsact::search {

namespace {

// Hit-only site (injected error codes are dropped): lets the chaos suite
// insert latency at the heart of query evaluation to exercise deadline
// enforcement mid-execution.
const fault::FaultPointId kFaultSearchEvaluate =
    fault::RegisterFaultPoint("search.evaluate", fault::FaultSiteKind::kHitOnly);

}  // namespace

CorpusIndex::CorpusIndex(xml::Document document, SlcaAlgorithm slca)
    : CorpusIndex(std::move(document), xml::NodeTable(), slca) {}

CorpusIndex::CorpusIndex(xml::Document document, xml::NodeTable node_table,
                         SlcaAlgorithm slca)
    : doc(std::move(document)),
      table(!node_table.empty() ? std::move(node_table)
                                : xml::NodeTable::Build(doc)),
      schema(entity::InferSchema(doc)),
      index(InvertedIndex::Build(table)),
      category_index(table, schema),
      algorithm(slca) {}

SearchEngine::SearchEngine(xml::Document doc, SlcaAlgorithm algorithm)
    : corpus_(std::move(doc), algorithm) {}

SearchEngine::SearchEngine(xml::Document doc, xml::NodeTable table,
                           SlcaAlgorithm algorithm)
    : corpus_(std::move(doc), std::move(table), algorithm) {}

std::vector<QueryTerm> ParseQuery(std::string_view query) {
  std::vector<QueryTerm> out;
  ParseQueryInto(query, &out);
  return out;
}

void ParseQueryInto(std::string_view query, std::vector<QueryTerm>* out_ptr) {
  std::vector<QueryTerm>& out = *out_ptr;
  out.clear();
  // Whitespace-separated chunks; a chunk may carry a "tag:" restriction.
  size_t pos = 0;
  while (pos < query.size()) {
    while (pos < query.size() &&
           std::isspace(static_cast<unsigned char>(query[pos]))) {
      ++pos;
    }
    size_t end = pos;
    while (end < query.size() &&
           !std::isspace(static_cast<unsigned char>(query[end]))) {
      ++end;
    }
    if (end == pos) break;
    std::string_view chunk = query.substr(pos, end - pos);
    pos = end;
    std::string field;
    const size_t colon = chunk.find(':');
    if (colon != std::string_view::npos && colon > 0) {
      const std::vector<std::string> field_tokens =
          Tokenize(chunk.substr(0, colon));
      if (field_tokens.size() == 1) {
        field = field_tokens[0];
        chunk = chunk.substr(colon + 1);
      }
    }
    for (std::string& term : Tokenize(chunk)) {
      out.push_back(QueryTerm{std::move(term), field});
    }
  }
}

StatusOr<std::vector<SearchResult>> SearchEngine::Search(
    std::string_view query) const {
  SearchWorkspace ws;
  return Search(query, &ws);
}

namespace {

// Decodes every source into the workspace's flat arena (plain sources
// keep their existing storage) and builds MatchLists views for the scan
// kernels. One arena resize, no per-list vectors. Checks the workspace's
// cancellation between sources (one source decode is the natural unit of
// interruptible work here).
Status DecodeSources(SearchWorkspace* ws) {
  size_t need = 0;
  for (const PostingSource& src : ws->sources) {
    if (!src.is_plain()) need += src.size();
  }
  ws->decode_pool.resize(need);
  ws->lists.clear();
  size_t offset = 0;
  const bool expirable = ws->cancel.can_expire();
  for (const PostingSource& src : ws->sources) {
    if (expirable) XSACT_RETURN_IF_ERROR(ws->cancel.Check());
    if (src.is_plain()) {
      ws->lists.push_back(src.plain());
      continue;
    }
    xml::NodeId* out = ws->decode_pool.data() + offset;
    src.compressed().DecodeInto(out);
    ws->lists.push_back(PostingList(out, src.size()));
    offset += src.size();
  }
  return Status();
}

}  // namespace

StatusOr<std::vector<SearchResult>> SearchEngine::Search(
    std::string_view query, SearchWorkspace* ws) const {
  const xml::NodeTable& table = corpus_.table;
  ws->Reset();
  ParseQueryInto(query, &ws->terms);
  std::vector<QueryTerm>& terms = ws->terms;
  if (terms.empty()) {
    return Status::InvalidArgument("query contains no searchable tokens");
  }
  // Dedup conjuncts (stable): a duplicated query term would fetch and
  // intersect the same posting list twice without changing the answer.
  size_t unique_terms = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    bool duplicate = false;
    for (size_t j = 0; j < unique_terms && !duplicate; ++j) {
      duplicate = terms[j] == terms[i];
    }
    if (!duplicate) {
      if (unique_terms != i) terms[unique_terms] = std::move(terms[i]);
      ++unique_terms;
    }
  }
  terms.resize(unique_terms);

  MergeLists& sources = ws->sources;
  sources.reserve(terms.size());
  // Backing storage for fielded terms only; unrestricted terms read the
  // index's compressed postings directly.
  std::vector<std::vector<xml::NodeId>>& filtered_storage =
      ws->filtered_storage;
  filtered_storage.reserve(terms.size());
  size_t total_postings = 0;
  for (const QueryTerm& qt : terms) {
    const CompressedPostings postings = corpus_.index.Postings(qt.term);
    if (qt.field.empty()) {
      sources.push_back(PostingSource(postings));
    } else {
      // Fielded term: keep only matches whose containing element has the
      // requested tag.
      const PostingList full = postings.DecodeAll(&ws->field_scratch);
      std::vector<xml::NodeId>& filtered = filtered_storage.emplace_back();
      for (xml::NodeId id : full) {
        if (table.node(id)->tag() == qt.field) filtered.push_back(id);
      }
      sources.push_back(
          PostingSource(PostingList(filtered.data(), filtered.size())));
    }
    if (sources.back().empty()) {
      return std::vector<SearchResult>{};  // conjunctive: no results
    }
    total_postings += sources.back().size();
  }
  // Smallest list first: the merge kernels anchor on the first shortest
  // list, and the scan kernels are insensitive to order, so sorting is
  // free correctness-wise and pays on the merge path.
  std::stable_sort(sources.begin(), sources.end(),
                   [](const PostingSource& a, const PostingSource& b) {
                     return a.size() < b.size();
                   });

  // Selectivity dispatch: the merge kernels cost ~ posting volume, the
  // scan kernels ~ corpus size. Merge when the postings are a small
  // fraction of the table (or when the query is too wide for the scan
  // fast path); scan when the lists approach corpus scale and the merge
  // would gallop over nearly every block anyway.
  const bool selective = total_postings < table.size() / 4;
  const bool prefer_merge = selective || sources.size() > 64;
  XSACT_FAULT_HIT(kFaultSearchEvaluate);
  const Cancellation& cancel = ws->cancel;
  std::vector<xml::NodeId> slcas;
  switch (corpus_.algorithm) {
    case SlcaAlgorithm::kScan:
      XSACT_RETURN_IF_ERROR(DecodeSources(ws));
      slcas = ComputeSlcaByScan(table, ws->lists, cancel);
      break;
    case SlcaAlgorithm::kSlca:
      if (prefer_merge) {
        slcas = ComputeSlcaMerge(table, sources, &ws->merge, cancel);
      } else {
        XSACT_RETURN_IF_ERROR(DecodeSources(ws));
        slcas = ComputeSlcaByScan(table, ws->lists, cancel);
      }
      break;
    case SlcaAlgorithm::kElca:
      if (prefer_merge) {
        slcas = ComputeElcaMerge(table, sources, &ws->merge, cancel);
      } else {
        XSACT_RETURN_IF_ERROR(DecodeSources(ws));
        slcas = ComputeElcaByScan(table, ws->lists, cancel);
      }
      break;
  }
  // The kernels return partial answers on expiry; never surface those.
  XSACT_RETURN_IF_ERROR(cancel.Check());

  std::vector<SearchResult> results;
  std::unordered_set<const xml::Node*>& seen = ws->seen;
  const bool expirable = cancel.can_expire();
  uint32_t tick = 0;
  for (xml::NodeId slca_id : slcas) {
    if (expirable && (++tick & 255u) == 0) {
      XSACT_RETURN_IF_ERROR(cancel.Check());
    }
    const xml::Node* slca = table.node(slca_id);
    // Return-node inference: nearest entity ancestor-or-self. The document
    // root bounds the walk: if no entity exists on the path we fall back to
    // the SLCA itself rather than returning the entire corpus.
    const xml::Node* ret = slca;
    for (const xml::Node* cur = slca; cur != nullptr; cur = cur->parent()) {
      if (corpus_.schema.CategoryOf(*cur, &ws->key_scratch) ==
          entity::NodeCategory::kEntity) {
        ret = cur;
        break;
      }
    }
    if (!seen.insert(ret).second) continue;  // several SLCAs, one entity
    SearchResult r;
    r.root = ret;
    r.root_id = table.IdOf(ret);
    r.slca = slca;
    r.title = InferTitle(*ret);
    results.push_back(std::move(r));
  }
  return results;
}

StatusOr<std::vector<SearchResult>> SearchEngine::SearchRanked(
    std::string_view query) const {
  SearchWorkspace ws;
  return SearchRanked(query, &ws);
}

StatusOr<std::vector<SearchResult>> SearchEngine::SearchRanked(
    std::string_view query, SearchWorkspace* ws) const {
  // Search leaves the parsed conjuncts in the workspace; ranking views
  // them in place — the query is parsed once and no term is copied.
  XSACT_ASSIGN_OR_RETURN(std::vector<SearchResult> results,
                         Search(query, ws));
  ws->term_views.reserve(ws->terms.size());
  for (const QueryTerm& qt : ws->terms) ws->term_views.push_back(qt.term);
  return RankResults(corpus_.table, corpus_.index, ws->term_views,
                     std::move(results));
}

std::string InferTitle(const xml::Node& result_root) {
  static constexpr std::string_view kTitleTags[] = {"name", "title", "id"};
  for (std::string_view tag : kTitleTags) {
    if (const xml::Node* child = result_root.FirstChildElement(tag)) {
      std::string text = child->InnerText();
      if (!text.empty()) return text;
    }
  }
  std::string text = result_root.InnerText();
  if (text.size() > 40) {
    text.resize(40);
    text += "...";
  }
  return text.empty() ? std::string(result_root.tag()) : text;
}

std::string BriefSnippet(const xml::Node& result_root, size_t max_fields) {
  std::vector<std::string> fields;
  for (const xml::Node* child : result_root.children()) {
    if (fields.size() >= max_fields) break;
    if (!child->is_element() || !child->IsLeafElement()) continue;
    std::string value = child->InnerText();
    if (value.empty()) continue;
    if (value.size() > 32) {
      value.resize(32);
      value += "...";
    }
    fields.push_back(std::string(child->tag()) + ": " + value);
  }
  return Join(fields, " | ");
}

}  // namespace xsact::search
