// Robustness and determinism properties across the whole stack:
//  * the parser never crashes on mutated/garbage input (Status or a
//    valid document, nothing else),
//  * every selector is deterministic run-to-run,
//  * the engine behaves identically across answer-semantics choices
//    where the semantics coincide,
//  * end-to-end failure injection (malformed corpora, hostile values).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dod.h"
#include "core/selector.h"
#include "data/product_reviews.h"
#include "engine/xsact.h"
#include "table/renderer.h"
#include "test_util.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xsact {
namespace {

// ---------------------------------------------------------------------------
// Parser fuzz: random mutations of a valid document must either parse or
// fail cleanly -- and whatever parses must re-serialize and re-parse.
// ---------------------------------------------------------------------------

class ParserFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzProperty, MutatedInputNeverBreaksInvariants) {
  Rng rng(GetParam());
  const xml::Document doc = data::GenerateProductReviews(
      {.num_products = 2, .min_reviews = 1, .max_reviews = 3,
       .seed = GetParam()});
  std::string text = xml::WriteDocument(doc);

  for (int round = 0; round < 20; ++round) {
    // Apply 1-5 random byte mutations.
    const int mutations = static_cast<int>(rng.Range(1, 5));
    std::string mutated = text;
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Range(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Range(32, 126)));
      }
    }
    StatusOr<xml::Document> parsed = xml::Parse(mutated);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
      continue;
    }
    // Whatever survived must be serializable and re-parseable.
    const std::string reserialized = xml::WriteDocument(*parsed);
    StatusOr<xml::Document> reparsed = xml::Parse(reserialized);
    EXPECT_TRUE(reparsed.ok())
        << reparsed.status() << "\nmutated: " << mutated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzProperty,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Selector determinism.
// ---------------------------------------------------------------------------

class SelectorDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectorDeterminism, RepeatedSelectionIsIdentical) {
  testing::InstanceFixture fx =
      testing::RandomInstance(GetParam(), 3, 6);
  core::SelectorOptions options;
  options.size_bound = 3;
  for (core::SelectorKind kind :
       {core::SelectorKind::kSnippet, core::SelectorKind::kGreedy,
        core::SelectorKind::kSingleSwap, core::SelectorKind::kMultiSwap,
        core::SelectorKind::kWeightedMultiSwap}) {
    auto selector = core::MakeSelector(kind);
    const auto a = selector->Select(fx.instance, options);
    const auto b = selector->Select(fx.instance, options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i])
          << core::SelectorKindName(kind) << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorDeterminism,
                         ::testing::Range<uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Engine-level robustness.
// ---------------------------------------------------------------------------

TEST(EngineSemanticsTest, ScanSlcaAndElcaEnginesAgreeOnEntityResults) {
  // For entity-level results on catalog-shaped data the three semantics
  // coincide after return-node inference: an ELCA ancestor above the
  // entity maps back to... itself only if it IS an entity; catalogs put
  // entities directly above the matches, so the result sets agree.
  const std::string text = xml::WriteDocument(data::GenerateProductReviews(
      {.num_products = 8, .min_reviews = 3, .max_reviews = 8, .seed = 5}));
  std::vector<std::vector<std::string>> titles;
  for (search::SlcaAlgorithm alg :
       {search::SlcaAlgorithm::kScan, search::SlcaAlgorithm::kSlca}) {
    auto xsact = engine::Xsact::FromXml(text, alg);
    ASSERT_TRUE(xsact.ok());
    auto results = xsact->Search("gps compact");
    ASSERT_TRUE(results.ok());
    std::vector<std::string> t;
    for (const auto& r : *results) t.push_back(r.title);
    titles.push_back(std::move(t));
  }
  EXPECT_EQ(titles[0], titles[1]);

  auto elca = engine::Xsact::FromXml(text, search::SlcaAlgorithm::kElca);
  ASSERT_TRUE(elca.ok());
  auto elca_results = elca->Search("gps compact");
  ASSERT_TRUE(elca_results.ok());
  EXPECT_GE(elca_results->size(), titles[0].size());  // superset semantics
}

TEST(EngineRobustnessTest, HostileValuesSurviveTheFullPipeline) {
  // Values with markup, quotes and entities must flow through extraction,
  // comparison and every renderer without breaking well-formedness.
  auto xsact = engine::Xsact::FromXml(
      "<catalog>"
      "<product><name>a &lt;b&gt; &amp; \"c\"</name><price>1</price>"
      "<tag>common</tag></product>"
      "<product><name>d 'e' &#65;</name><price>2</price>"
      "<tag>common</tag></product>"
      "</catalog>");
  ASSERT_TRUE(xsact.ok()) << xsact.status();
  engine::CompareOptions options;
  auto outcome = xsact->SearchAndCompare("common", 0, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const std::string html = table::RenderHtml(outcome->table);
  EXPECT_EQ(html.find("<b>"), std::string::npos);  // escaped, not raw
  const std::string json = table::RenderJson(outcome->table);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  const std::string csv = table::RenderCsv(outcome->table);
  EXPECT_FALSE(csv.empty());
}

TEST(EngineRobustnessTest, MaxComparedAppliesAfterLifting) {
  // 2 brands x several matching products: max_compared=2 must yield two
  // BRANDS, not the first two products' brand collapsed into one.
  auto xsact = engine::Xsact::FromXml(
      "<catalog>"
      "<brand><name>alpha</name><products>"
      "<product><kind>jacket</kind><c>x</c></product>"
      "<product><kind>jacket</kind><c>y</c></product>"
      "</products></brand>"
      "<brand><name>beta</name><products>"
      "<product><kind>jacket</kind><c>z</c></product>"
      "<product><kind>jacket</kind><c>w</c></product>"
      "</products></brand>"
      "</catalog>");
  ASSERT_TRUE(xsact.ok());
  engine::CompareOptions options;
  options.lift_results_to = "brand";
  auto outcome = xsact->SearchAndCompare("jacket", 2, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->table.headers.size(), 2u);
  EXPECT_EQ(outcome->table.headers[0], "alpha");
  EXPECT_EQ(outcome->table.headers[1], "beta");
}

TEST(EngineRobustnessTest, SingleResultCorpusCannotCompare) {
  auto xsact = engine::Xsact::FromXml(
      "<c><p><n>only match</n></p><p><n>other</n></p></c>");
  ASSERT_TRUE(xsact.ok());
  auto outcome = xsact->SearchAndCompare("only", 0, {});
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineRobustnessTest, ZeroBoundYieldsEmptyDfss) {
  // A degenerate bound produces empty-but-valid DFSs and an empty table,
  // not a crash.
  auto xsact = engine::Xsact::FromXml(
      "<c><p><a>k1 shared</a></p><p><a>k2 shared</a></p></c>");
  ASSERT_TRUE(xsact.ok());
  engine::CompareOptions options;
  options.selector.size_bound = 0;
  auto outcome = xsact->SearchAndCompare("shared", 0, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->total_dod, 0);
  EXPECT_TRUE(outcome->table.rows.empty());
}

}  // namespace
}  // namespace xsact
