// Unit and property tests for the inverted index, the scan and merge
// SLCA kernels and the XSeek-style search engine.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "data/movies.h"
#include "data/product_reviews.h"
#include "search/inverted_index.h"
#include "search/search_engine.h"
#include "search/slca.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xsact::search {
namespace {

xml::Document Doc(std::string_view text) {
  auto d = xml::Parse(text);
  EXPECT_TRUE(d.ok()) << d.status();
  return std::move(d).value();
}

TEST(InvertedIndexTest, PostingsAreSortedElementIds) {
  xml::Document doc = Doc(
      "<c><p><n>alpha beta</n></p><p><n>beta gamma</n></p></c>");
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const InvertedIndex index = InvertedIndex::Build(table);

  EXPECT_TRUE(index.Contains("alpha"));
  EXPECT_TRUE(index.Contains("beta"));
  EXPECT_FALSE(index.Contains("delta"));
  EXPECT_EQ(index.Postings("beta").size(), 2u);
  EXPECT_EQ(index.Df("beta"), 2u);
  EXPECT_EQ(index.Postings("alpha").size(), 1u);
  EXPECT_EQ(index.Df("delta"), 0u);
  // Postings point at the containing element (the <n> nodes).
  std::vector<xml::NodeId> decoded;
  const PostingList beta = index.Decode("beta", &decoded);
  for (xml::NodeId id : beta) {
    EXPECT_EQ(table.node(id)->tag(), "n");
  }
  EXPECT_TRUE(std::is_sorted(beta.begin(), beta.end()));
}

TEST(InvertedIndexTest, CaseFoldingAndTokenization) {
  xml::Document doc = Doc("<r><t>TomTom, GPS-Device!</t></r>");
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const InvertedIndex index = InvertedIndex::Build(table);
  EXPECT_TRUE(index.Contains("tomtom"));
  EXPECT_TRUE(index.Contains("gps"));
  EXPECT_TRUE(index.Contains("device"));
  EXPECT_FALSE(index.Contains("TomTom"));  // already folded
}

TEST(InvertedIndexTest, AttributeValuesIndexed) {
  xml::Document doc = Doc(R"(<r><a name="hidden gem">x</a></r>)");
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const InvertedIndex index = InvertedIndex::Build(table);
  ASSERT_TRUE(index.Contains("hidden"));
  std::vector<xml::NodeId> decoded;
  EXPECT_EQ(table.node(index.Decode("hidden", &decoded)[0])->tag(), "a");
}

TEST(InvertedIndexTest, DuplicateTermInOneElementPostsOnce) {
  xml::Document doc = Doc("<r><t>spam spam spam</t></r>");
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const InvertedIndex index = InvertedIndex::Build(table);
  EXPECT_EQ(index.Postings("spam").size(), 1u);
}

// ---------------------------------------------------------------------------
// SLCA
// ---------------------------------------------------------------------------

/// Match lists decoded from the index, bundled with the backing storage
/// the views point into (movable; views stay valid across the move).
struct DecodedLists {
  std::vector<std::vector<xml::NodeId>> storage;
  MatchLists lists;
};

DecodedLists Lists(const InvertedIndex& index,
                   const std::vector<std::string>& terms) {
  DecodedLists out;
  out.storage.reserve(terms.size());
  for (const auto& t : terms) {
    std::vector<xml::NodeId>& s = out.storage.emplace_back();
    out.lists.push_back(index.Decode(t, &s));
  }
  return out;
}

/// SLCA through the merge kernel over the index's compressed postings,
/// exactly as the engine's selective dispatch hands them over.
std::vector<xml::NodeId> SlcaMerge(const xml::NodeTable& table,
                                   const InvertedIndex& index,
                                   const std::vector<std::string>& terms) {
  MergeLists sources;
  for (const auto& t : terms) {
    sources.push_back(PostingSource(index.Postings(t)));
  }
  MergeScratch scratch;
  return ComputeSlcaMerge(table, sources, &scratch);
}

class SlcaTest : public ::testing::Test {
 protected:
  void Init(std::string_view text) {
    doc_ = Doc(text);
    table_ = xml::NodeTable::Build(doc_);
    index_ = InvertedIndex::Build(table_);
  }

  std::vector<std::string> TagsOf(const std::vector<xml::NodeId>& ids) {
    std::vector<std::string> tags;
    for (auto id : ids) tags.emplace_back(table_.node(id)->tag());
    return tags;
  }

  xml::Document doc_;
  xml::NodeTable table_;
  InvertedIndex index_;
};

TEST_F(SlcaTest, SingleKeywordReturnsMatchingElements) {
  Init("<c><p><n>alpha</n></p><p><n>alpha</n></p></c>");
  const auto slca = ComputeSlcaByScan(table_, Lists(index_, {"alpha"}).lists);
  EXPECT_EQ(TagsOf(slca), (std::vector<std::string>{"n", "n"}));
}

TEST_F(SlcaTest, TwoKeywordsMeetAtCommonAncestor) {
  Init(
      "<catalog>"
      "<product><name>tomtom</name><kind>gps</kind></product>"
      "<product><name>garmin</name><kind>gps</kind></product>"
      "</catalog>");
  const auto slca =
      ComputeSlcaByScan(table_, Lists(index_, {"tomtom", "gps"}).lists);
  // Only the first product contains both; the SLCA is that product.
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(table_.node(slca[0])->tag(), "product");
  EXPECT_EQ(table_.node(slca[0])->FirstChildElement("name")->InnerText(),
            "tomtom");
}

TEST_F(SlcaTest, DeeperMatchSuppressesAncestor) {
  // Both keywords inside one <n>: the SLCA is <n>, not the root.
  Init("<c><p><n>alpha beta</n></p><p><n>alpha</n><m>beta</m></p></c>");
  const auto slca =
      ComputeSlcaByScan(table_, Lists(index_, {"alpha", "beta"}).lists);
  // First product: SLCA = n (contains both). Second product: SLCA = p.
  ASSERT_EQ(slca.size(), 2u);
  EXPECT_EQ(TagsOf(slca), (std::vector<std::string>{"n", "p"}));
}

TEST_F(SlcaTest, MissingKeywordYieldsEmpty) {
  Init("<c><n>alpha</n></c>");
  EXPECT_TRUE(
      ComputeSlcaByScan(table_, Lists(index_, {"alpha", "zzz"}).lists).empty());
  EXPECT_TRUE(SlcaMerge(table_, index_, {"alpha", "zzz"}).empty());
  EXPECT_TRUE(ComputeSlcaByScan(table_, {}).empty());
  EXPECT_TRUE(SlcaMerge(table_, index_, {}).empty());
}

TEST_F(SlcaTest, ThreeKeywords) {
  Init(
      "<r>"
      "<a><x>one</x><y>two</y><z>three</z></a>"
      "<b><x>one</x><y>two</y></b>"
      "</r>");
  const auto slca =
      ComputeSlcaByScan(table_, Lists(index_, {"one", "two", "three"}).lists);
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(table_.node(slca[0])->tag(), "a");
}

TEST_F(SlcaTest, MergeMatchesScanOnHandcrafted) {
  Init(
      "<movies>"
      "<movie><title>star quest</title><d>one</d></movie>"
      "<movie><title>star fall</title><d>two</d></movie>"
      "<movie><title>dragon star</title><d>one</d></movie>"
      "</movies>");
  for (const auto& terms :
       std::vector<std::vector<std::string>>{{"star"},
                                             {"star", "quest"},
                                             {"star", "one"},
                                             {"one"},
                                             {"star", "dragon"}}) {
    EXPECT_EQ(ComputeSlcaByScan(table_, Lists(index_, terms).lists),
              SlcaMerge(table_, index_, terms))
        << "terms: " << terms[0];
  }
}

// Property: the scan and merge SLCA kernels agree on random documents
// and random keyword subsets.
class SlcaEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlcaEquivalenceProperty, ScanEqualsMerge) {
  Rng rng(GetParam());
  // Random tree whose leaves carry words from a tiny pool (forcing both
  // overlap and repetition).
  const std::vector<std::string> pool = {"ant", "bee", "cat", "dog", "elk"};
  xml::Document doc = xml::Document::WithRoot("root");
  std::vector<xml::Node*> elements = {doc.root()};
  const int nodes = static_cast<int>(rng.Range(5, 60));
  for (int i = 0; i < nodes; ++i) {
    xml::Node* parent = elements[rng.Below(elements.size())];
    xml::Node* e = parent->AddElement("e" + std::to_string(rng.Below(4)));
    elements.push_back(e);
    if (rng.Chance(0.6)) {
      std::string text = pool[rng.Below(pool.size())];
      if (rng.Chance(0.3)) text += " " + pool[rng.Below(pool.size())];
      e->AddChild(xml::Node::MakeText(text));
    }
  }
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const InvertedIndex index = InvertedIndex::Build(table);

  for (const auto& terms : std::vector<std::vector<std::string>>{
           {"ant"},
           {"ant", "bee"},
           {"cat", "dog", "elk"},
           {"ant", "bee", "cat", "dog"}}) {
    const DecodedLists decoded = Lists(index, terms);
    const MatchLists& lists = decoded.lists;
    const auto scan = ComputeSlcaByScan(table, lists);
    const auto merge = SlcaMerge(table, index, terms);
    EXPECT_EQ(scan, merge) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlcaEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// SearchEngine
// ---------------------------------------------------------------------------

TEST(SearchEngineTest, ReturnsEntityResultsInDocumentOrder) {
  SearchEngine engine(data::GenerateMovies(
      {.franchise_sizes = {3, 4}, .min_reviews = 2, .max_reviews = 4,
       .seed = 77}));
  auto results = engine.Search("star");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 3u);
  for (const SearchResult& r : *results) {
    EXPECT_EQ(r.root->tag(), "movie");
    EXPECT_NE(r.title.find("star"), std::string::npos);
  }
}

TEST(SearchEngineTest, ConjunctiveSemantics) {
  SearchEngine engine(Doc(
      "<c><p><n>tomtom gps</n></p><p><n>garmin gps</n></p>"
      "<p><n>tomtom phone</n></p></c>"));
  auto results = engine.Search("tomtom gps");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);

  auto none = engine.Search("tomtom zune");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(SearchEngineTest, EmptyQueryIsInvalid) {
  SearchEngine engine(Doc("<c><n>x</n></c>"));
  EXPECT_EQ(engine.Search("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Search(" ,; ").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SearchEngineTest, LiftsSlcaToEntityReturnNode) {
  // "quiet" occurs in a leaf deep inside the review; the result should be
  // the review entity, not the leaf.
  SearchEngine engine(Doc(
      "<products><product><reviews>"
      "<review><pros><pro>quiet</pro><pro>fast</pro></pros></review>"
      "<review><pros><pro>loud</pro></pros></review>"
      "</reviews></product>"
      "<product><reviews>"
      "<review><pros><pro>cheap</pro></pros></review>"
      "<review><pros><pro>cheap</pro></pros></review>"
      "</reviews></product></products>"));
  auto results = engine.Search("quiet");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->at(0).root->tag(), "review");
  EXPECT_EQ(results->at(0).slca->tag(), "pro");
}

TEST(SearchEngineTest, DeduplicatesResultsMappingToOneEntity) {
  // "quiet" matches two distinct leaves inside the SAME review entity;
  // both SLCAs must collapse into one result.
  SearchEngine engine(Doc(
      "<products><product><reviews>"
      "<review><pros><pro>quiet</pro><pro>small</pro></pros>"
      "<cons><con>quiet speaker</con><con>slow</con></cons></review>"
      "<review><pros><pro>fast</pro></pros>"
      "<cons><con>bulky</con></cons></review>"
      "</reviews></product></products>"));
  auto results = engine.Search("quiet");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->at(0).root->tag(), "review");
}

TEST(SearchEngineTest, ScanAndSlcaEnginesAgree) {
  xml::Document doc = data::GenerateProductReviews(
      {.num_products = 6, .min_reviews = 3, .max_reviews = 8, .seed = 3});
  const std::string text = xml::WriteDocument(doc);
  SearchEngine scan_engine(Doc(text), SlcaAlgorithm::kScan);
  SearchEngine slca_engine(Doc(text), SlcaAlgorithm::kSlca);
  for (const char* q : {"gps", "compact", "garmin gps", "easy"}) {
    auto a = scan_engine.Search(q);
    auto b = slca_engine.Search(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->at(i).root_id, b->at(i).root_id);
    }
  }
}

TEST(InferTitleTest, PrefersNameThenTitleThenText) {
  xml::Document with_name = Doc("<p><name>gizmo</name><title>t</title></p>");
  EXPECT_EQ(InferTitle(*with_name.root()), "gizmo");
  xml::Document with_title = Doc("<p><title>the movie</title></p>");
  EXPECT_EQ(InferTitle(*with_title.root()), "the movie");
  xml::Document bare = Doc("<p>some plain text</p>");
  EXPECT_EQ(InferTitle(*bare.root()), "some plain text");
  xml::Document empty = Doc("<p/>");
  EXPECT_EQ(InferTitle(*empty.root()), "p");
}

}  // namespace
}  // namespace xsact::search
