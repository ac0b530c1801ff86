// A5 — google-benchmark micro-benchmarks for every substrate on the
// XSACT pipeline's critical path: XML parsing, node-table construction,
// inverted-index build, SLCA (both algorithms), schema inference,
// feature extraction, instance construction, and the per-result DP.

#include <benchmark/benchmark.h>

#include <initializer_list>
#include <map>
#include <vector>

#include "core/dod.h"
#include "core/multi_swap.h"
#include "core/snippet_selector.h"
#include "data/movies.h"
#include "data/product_reviews.h"
#include "engine/xsact.h"
#include "entity/entity_identifier.h"
#include "feature/extractor.h"
#include "search/inverted_index.h"
#include "search/slca.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace xsact;

const std::string& CorpusText() {
  static const std::string* kText = [] {
    data::ProductReviewsConfig config;
    config.num_products = 40;
    config.min_reviews = 10;
    config.max_reviews = 40;
    return new std::string(
        xml::WriteDocument(data::GenerateProductReviews(config)));
  }();
  return *kText;
}

const xml::Document& Corpus() {
  static const xml::Document* kDoc = [] {
    auto doc = xml::Parse(CorpusText());
    return new xml::Document(std::move(doc).value());
  }();
  return *kDoc;
}

const xml::NodeTable& Table() {
  static const xml::NodeTable* kTable =
      new xml::NodeTable(xml::NodeTable::Build(Corpus()));
  return *kTable;
}

const search::InvertedIndex& Index() {
  static const search::InvertedIndex* kIndex = new search::InvertedIndex(
      search::InvertedIndex::Build(Table()));
  return *kIndex;
}

void BM_XmlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = xml::Parse(CorpusText());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusText().size()));
}
BENCHMARK(BM_XmlParse);

void BM_XmlWrite(benchmark::State& state) {
  for (auto _ : state) {
    std::string out = xml::WriteDocument(Corpus());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_XmlWrite);

void BM_NodeTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto table = xml::NodeTable::Build(Corpus());
    benchmark::DoNotOptimize(table);
  }
  state.counters["nodes"] = static_cast<double>(Corpus().NodeCount());
}
BENCHMARK(BM_NodeTableBuild);

void BM_IndexBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto index = search::InvertedIndex::Build(Table());
    benchmark::DoNotOptimize(index);
  }
  state.counters["terms"] = static_cast<double>(Index().TermCount());
}
BENCHMARK(BM_IndexBuild);

void BM_SchemaInfer(benchmark::State& state) {
  for (auto _ : state) {
    auto schema = entity::InferSchema(Corpus());
    benchmark::DoNotOptimize(schema);
  }
}
BENCHMARK(BM_SchemaInfer);

/// Decoded match lists plus the storage the views point into.
struct QueryListsStorage {
  std::vector<std::vector<xml::NodeId>> storage;
  search::MatchLists lists;
};

QueryListsStorage DecodeLists(const search::InvertedIndex& index,
                              std::initializer_list<const char*> terms) {
  QueryListsStorage out;
  out.storage.reserve(terms.size());
  for (const char* t : terms) {
    out.lists.push_back(index.Decode(t, &out.storage.emplace_back()));
  }
  return out;
}

QueryListsStorage QueryLists() {
  return DecodeLists(Index(), {"gps", "compact"});
}

/// Compressed posting sources for the merge kernel (no decode).
search::MergeLists MergeSources(const search::InvertedIndex& index,
                                std::initializer_list<const char*> terms) {
  search::MergeLists sources;
  for (const char* t : terms) {
    sources.push_back(search::PostingSource(index.Postings(t)));
  }
  return sources;
}

void BM_SlcaScan(benchmark::State& state) {
  const auto query = QueryLists();
  const search::MatchLists& lists = query.lists;
  for (auto _ : state) {
    auto slca = search::ComputeSlcaByScan(Table(), lists);
    benchmark::DoNotOptimize(slca);
  }
}
BENCHMARK(BM_SlcaScan);

void BM_SlcaMerge(benchmark::State& state) {
  const search::MergeLists sources =
      MergeSources(Index(), {"gps", "compact"});
  search::MergeScratch scratch;
  for (auto _ : state) {
    auto slca = search::ComputeSlcaMerge(Table(), sources, &scratch);
    benchmark::DoNotOptimize(slca);
  }
}
BENCHMARK(BM_SlcaMerge);

void BM_Elca(benchmark::State& state) {
  const auto query = QueryLists();
  const search::MatchLists& lists = query.lists;
  for (auto _ : state) {
    auto elca = search::ComputeElcaByScan(Table(), lists);
    benchmark::DoNotOptimize(elca);
  }
}
BENCHMARK(BM_Elca);

/// Corpus-size scaling of the two SLCA kernels: the scan pass is linear
/// in document size while the merge only touches the posting lists —
/// the gap widens with corpus growth.
struct SizedCorpus {
  xml::Document doc;
  xml::NodeTable table;
  search::InvertedIndex index;
};

const SizedCorpus& CorpusOfSize(int products) {
  static std::map<int, const SizedCorpus*>* cache =
      new std::map<int, const SizedCorpus*>();
  auto it = cache->find(products);
  if (it == cache->end()) {
    data::ProductReviewsConfig config;
    config.num_products = products;
    config.min_reviews = 10;
    config.max_reviews = 30;
    auto* corpus = new SizedCorpus{data::GenerateProductReviews(config),
                                   xml::NodeTable(), search::InvertedIndex()};
    corpus->table = xml::NodeTable::Build(corpus->doc);
    corpus->index = search::InvertedIndex::Build(corpus->table);
    it = cache->emplace(products, corpus).first;
  }
  return *it->second;
}

void BM_SlcaScanScaling(benchmark::State& state) {
  const SizedCorpus& corpus = CorpusOfSize(static_cast<int>(state.range(0)));
  const auto query = DecodeLists(corpus.index, {"gps", "compact"});
  const search::MatchLists& lists = query.lists;
  for (auto _ : state) {
    auto slca = search::ComputeSlcaByScan(corpus.table, lists);
    benchmark::DoNotOptimize(slca);
  }
  state.counters["nodes"] = static_cast<double>(corpus.table.size());
}
BENCHMARK(BM_SlcaScanScaling)->Arg(10)->Arg(40)->Arg(160);

void BM_SlcaMergeScaling(benchmark::State& state) {
  const SizedCorpus& corpus = CorpusOfSize(static_cast<int>(state.range(0)));
  const search::MergeLists sources =
      MergeSources(corpus.index, {"gps", "compact"});
  search::MergeScratch scratch;
  for (auto _ : state) {
    auto slca = search::ComputeSlcaMerge(corpus.table, sources, &scratch);
    benchmark::DoNotOptimize(slca);
  }
  state.counters["nodes"] = static_cast<double>(corpus.table.size());
}
BENCHMARK(BM_SlcaMergeScaling)->Arg(10)->Arg(40)->Arg(160);

void BM_FeatureExtraction(benchmark::State& state) {
  const entity::EntitySchema schema = entity::InferSchema(Corpus());
  const auto products = Corpus().root()->ChildElements("product");
  feature::FeatureExtractor extractor;
  feature::ExtractionScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    feature::FeatureCatalog catalog;
    auto rf = extractor.Extract(*products[i % products.size()], schema,
                                &catalog, &scratch);
    benchmark::DoNotOptimize(rf);
    ++i;
  }
}
BENCHMARK(BM_FeatureExtraction);

engine::ComparisonOutcome Outcome(core::SelectorKind kind, int n) {
  engine::Xsact xsact(Corpus().Clone());
  engine::CompareOptions options;
  options.algorithm = kind;
  options.selector.size_bound = 6;
  auto outcome = xsact.SearchAndCompare("gps", static_cast<size_t>(n),
                                        options);
  return std::move(outcome).value();
}

void BM_SelectSnippet(benchmark::State& state) {
  auto outcome = Outcome(core::SelectorKind::kSnippet, 6);
  core::SelectorOptions options;
  options.size_bound = 6;
  core::SnippetSelector selector;
  for (auto _ : state) {
    auto dfss = selector.Select(outcome.instance, options);
    benchmark::DoNotOptimize(dfss);
  }
}
BENCHMARK(BM_SelectSnippet);

void BM_SelectMultiSwap(benchmark::State& state) {
  auto outcome = Outcome(core::SelectorKind::kSnippet, 6);
  core::SelectorOptions options;
  options.size_bound = 6;
  core::MultiSwapOptimizer selector;
  for (auto _ : state) {
    auto dfss = selector.Select(outcome.instance, options);
    benchmark::DoNotOptimize(dfss);
  }
}
BENCHMARK(BM_SelectMultiSwap);

void BM_TotalDod(benchmark::State& state) {
  auto outcome = Outcome(core::SelectorKind::kMultiSwap, 6);
  for (auto _ : state) {
    auto dod = core::TotalDod(outcome.instance, outcome.dfss);
    benchmark::DoNotOptimize(dod);
  }
}
BENCHMARK(BM_TotalDod);

void BM_EndToEndCompare(benchmark::State& state) {
  engine::Xsact xsact(Corpus().Clone());
  engine::CompareOptions options;
  options.selector.size_bound = 6;
  for (auto _ : state) {
    auto outcome = xsact.SearchAndCompare("gps", 4, options);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_EndToEndCompare);

}  // namespace

BENCHMARK_MAIN();
