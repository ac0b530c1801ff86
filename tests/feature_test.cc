// Unit tests for the feature model: catalog, result statistics, and the
// extractor's reproduction of the paper's Figure-1 arithmetic.

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "entity/entity_identifier.h"
#include "feature/catalog.h"
#include "feature/extractor.h"
#include "feature/result_features.h"
#include "xml/parser.h"

namespace xsact::feature {
namespace {

TEST(CatalogTest, TypeInterningIsIdempotentAndDense) {
  FeatureCatalog cat;
  const TypeId a = cat.InternType("review", "pro: compact");
  const TypeId b = cat.InternType("review", "pro: easy to read");
  const TypeId a2 = cat.InternType("review", "pro: compact");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(cat.NumTypes(), 2u);
  EXPECT_EQ(cat.EntityOf(a), "review");
  EXPECT_EQ(cat.AttributeOf(a), "pro: compact");
  EXPECT_EQ(cat.TypeName(a), "review.pro: compact");
}

TEST(CatalogTest, EntityAttributeSplitIsUnambiguous) {
  FeatureCatalog cat;
  // ("a", "b.c") and ("a.b", "c") must intern to different types.
  const TypeId t1 = cat.InternType("a", "b.c");
  const TypeId t2 = cat.InternType("a.b", "c");
  EXPECT_NE(t1, t2);
}

TEST(CatalogTest, FindWithoutIntern) {
  FeatureCatalog cat;
  EXPECT_EQ(cat.FindType("x", "y"), kInvalidTypeId);
  cat.InternType("x", "y");
  EXPECT_GE(cat.FindType("x", "y"), 0);
  EXPECT_EQ(cat.FindValue("v"), kInvalidValueId);
  const ValueId v = cat.InternValue("v");
  EXPECT_EQ(cat.FindValue("v"), v);
  EXPECT_EQ(cat.ValueOf(v), "v");
}

// The id-keyed overloads return the string overloads' ids, consult the
// names only on a memo miss, and drop the memo when the id space changes
// (the same ids may name other strings in another document).
TEST(CatalogTest, IdKeyedInterningMemoizesPerIdSpace) {
  FeatureCatalog catalog;
  int name_calls = 0;
  auto names = [&](std::string_view e, std::string_view a) {
    return [&name_calls, e, a] {
      ++name_calls;
      return std::pair<std::string_view, std::string_view>(e, a);
    };
  };
  const TypeId t = catalog.InternType(1, 3, 4, names("review", "rating"));
  EXPECT_EQ(t, catalog.FindType("review", "rating"));
  EXPECT_EQ(catalog.InternType(1, 3, 4, names("unused", "unused")), t);
  EXPECT_EQ(name_calls, 1);  // the repeat never read the names
  EXPECT_EQ(catalog.InternType("review", "rating"), t);

  // Space 2 reuses ids (3, 4) for another pair: a fresh type, not `t`.
  const TypeId u = catalog.InternType(2, 3, 4, names("movie", "genre"));
  EXPECT_NE(u, t);
  EXPECT_EQ(catalog.EntityOf(u), "movie");
  EXPECT_EQ(catalog.AttributeOf(u), "genre");

  const ValueId v =
      catalog.InternValue(2, 9, [] { return std::string_view("drama"); });
  EXPECT_EQ(v, catalog.FindValue("drama"));
  EXPECT_EQ(catalog.InternValue(2, 9, [] { return std::string_view("x"); }),
            v);
  EXPECT_EQ(catalog.NumTypes(), 2u);
  EXPECT_EQ(catalog.NumValues(), 1u);
}

TEST(ResultFeaturesTest, AggregatesObservations) {
  FeatureCatalog cat;
  const TypeId stars = cat.InternType("review", "stars");
  const ValueId five = cat.InternValue("5");
  const ValueId four = cat.InternValue("4");
  ResultFeatures rf;
  rf.AddObservation(stars, five, 6, 11);
  rf.AddObservation(stars, four, 3, 11);
  rf.AddObservation(stars, five, 2, 11);  // merges into (stars, 5)
  rf.Seal();

  const TypeStats* ts = rf.Find(stars);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->occurrence, 11);
  EXPECT_DOUBLE_EQ(ts->entity_cardinality, 11);
  ASSERT_EQ(ts->values.size(), 2u);
  EXPECT_EQ(ts->DominantValue(), five);  // 8 > 3
  EXPECT_DOUBLE_EQ(ts->RelativeOccurrenceOf(five), 8.0 / 11.0);
  EXPECT_DOUBLE_EQ(ts->RelativeOccurrenceOf(four), 3.0 / 11.0);
  EXPECT_DOUBLE_EQ(ts->RelativeOccurrenceOf(999), 0.0);
  EXPECT_DOUBLE_EQ(ts->RelativeOccurrence(), 1.0);
}

TEST(ResultFeaturesTest, DominantTieBreaksByValueId) {
  FeatureCatalog cat;
  const TypeId t = cat.InternType("e", "a");
  const ValueId v1 = cat.InternValue("first");
  const ValueId v2 = cat.InternValue("second");
  ResultFeatures rf;
  rf.AddObservation(t, v2, 5, 10);
  rf.AddObservation(t, v1, 5, 10);
  rf.Seal();
  EXPECT_EQ(rf.Find(t)->DominantValue(), v1);  // equal counts: lower id
}

TEST(ResultFeaturesTest, TypesSortedAndCounted) {
  FeatureCatalog cat;
  ResultFeatures rf;
  rf.AddObservation(cat.InternType("e", "b"), cat.InternValue("x"), 1, 1);
  rf.AddObservation(cat.InternType("e", "a"), cat.InternValue("y"), 1, 1);
  rf.Seal();
  EXPECT_EQ(rf.NumTypes(), 2u);
  EXPECT_EQ(rf.NumFeatures(), 2u);
  EXPECT_LT(rf.types()[0].type_id, rf.types()[1].type_id);
  EXPECT_TRUE(rf.HasType(rf.types()[0].type_id));
  EXPECT_FALSE(rf.HasType(12345));
}

// ---------------------------------------------------------------------------
// Extractor
// ---------------------------------------------------------------------------

class ExtractorTest : public ::testing::Test {
 protected:
  // A miniature Figure-1 product: 3 reviews; "compact" praised by 2 of 3.
  void SetUp() override {
    auto doc = xml::Parse(
        "<products>"
        "<product>"
        "  <name>TomTom Go 630</name>"
        "  <rating>4.2</rating>"
        "  <reviews>"
        "    <review><stars>5</stars>"
        "      <pros><pro>compact</pro><pro>easy to read</pro></pros></review>"
        "    <review><stars>5</stars><pros><pro>compact</pro></pros></review>"
        "    <review><stars>2</stars><pros><pro>large screen</pro></pros>"
        "    </review>"
        "  </reviews>"
        "</product>"
        "<product><name>other</name><rating>3.0</rating><reviews>"
        "    <review><stars>1</stars><pros><pro>cheap</pro></pros></review>"
        "    <review><stars>2</stars><pros><pro>cheap</pro></pros></review>"
        "</reviews></product>"
        "</products>");
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(doc).value();
    schema_ = entity::InferSchema(doc_);
    product_ = doc_.root()->ChildElements("product")[0];
  }

  xml::Document doc_;
  entity::EntitySchema schema_;
  const xml::Node* product_ = nullptr;
  FeatureCatalog catalog_;
};

TEST_F(ExtractorTest, MultiAttributeBecomesQualifiedBooleanType) {
  FeatureExtractor extractor;
  ResultFeatures rf = extractor.Extract(*product_, schema_, &catalog_);

  const TypeId compact = catalog_.FindType("review", "pro: compact");
  ASSERT_GE(compact, 0);
  const TypeStats* ts = rf.Find(compact);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->occurrence, 2);           // 2 of 3 reviewers
  EXPECT_DOUBLE_EQ(ts->entity_cardinality, 3);   // "# of reviews: 3"
  ASSERT_EQ(ts->values.size(), 1u);
  EXPECT_EQ(catalog_.ValueOf(ts->DominantValue()), "yes");
  EXPECT_NEAR(ts->RelativeOccurrence(), 2.0 / 3.0, 1e-12);
}

TEST_F(ExtractorTest, SingleAttributeKeepsValueDistribution) {
  FeatureExtractor extractor;
  ResultFeatures rf = extractor.Extract(*product_, schema_, &catalog_);

  const TypeId stars = catalog_.FindType("review", "stars");
  ASSERT_GE(stars, 0);
  const TypeStats* ts = rf.Find(stars);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->occurrence, 3);  // every review has stars
  ASSERT_EQ(ts->values.size(), 2u);     // "5" x2, "2" x1
  EXPECT_EQ(catalog_.ValueOf(ts->DominantValue()), "5");
}

TEST_F(ExtractorTest, ProductAttributesOwnedByResultRoot) {
  FeatureExtractor extractor;
  ResultFeatures rf = extractor.Extract(*product_, schema_, &catalog_);

  const TypeId name = catalog_.FindType("product", "name");
  ASSERT_GE(name, 0);
  const TypeStats* ts = rf.Find(name);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->occurrence, 1);
  EXPECT_DOUBLE_EQ(ts->entity_cardinality, 1);
  EXPECT_EQ(catalog_.ValueOf(ts->DominantValue()), "tomtom go 630");
  EXPECT_EQ(rf.label(), "TomTom Go 630");
}

TEST_F(ExtractorTest, ValueCaseFoldingConfigurable) {
  ExtractorOptions opts;
  opts.fold_value_case = false;
  FeatureExtractor extractor(opts);
  ResultFeatures rf = extractor.Extract(*product_, schema_, &catalog_);
  const TypeId name = catalog_.FindType("product", "name");
  EXPECT_EQ(catalog_.ValueOf(rf.Find(name)->DominantValue()),
            "TomTom Go 630");
}

TEST_F(ExtractorTest, LongValuesTruncated) {
  auto doc = xml::Parse("<r><note>" + std::string(300, 'x') + "</note><note2>ok</note2></r>");
  ASSERT_TRUE(doc.ok());
  ExtractorOptions opts;
  opts.max_value_length = 10;
  FeatureExtractor extractor(opts);
  entity::EntitySchema schema = entity::InferSchema(*doc);
  ResultFeatures rf = extractor.Extract(*doc->root(), schema, &catalog_);
  const TypeId note = catalog_.FindType("r", "note");
  ASSERT_GE(note, 0);
  EXPECT_EQ(catalog_.ValueOf(rf.Find(note)->DominantValue()).size(), 10u);
}

TEST_F(ExtractorTest, EmptyValuesSkipped) {
  auto doc = xml::Parse("<r><a></a><b>ok</b></r>");
  ASSERT_TRUE(doc.ok());
  FeatureExtractor extractor;
  entity::EntitySchema schema = entity::InferSchema(*doc);
  ResultFeatures rf = extractor.Extract(*doc->root(), schema, &catalog_);
  EXPECT_EQ(catalog_.FindType("r", "a"), kInvalidTypeId);
  EXPECT_GE(catalog_.FindType("r", "b"), 0);
}

TEST_F(ExtractorTest, BareLeafResultHasNoFeatures) {
  auto doc = xml::Parse("<name>just text</name>");
  ASSERT_TRUE(doc.ok());
  FeatureExtractor extractor;
  entity::EntitySchema schema = entity::InferSchema(*doc);
  ResultFeatures rf = extractor.Extract(*doc->root(), schema, &catalog_);
  EXPECT_EQ(rf.NumTypes(), 0u);
}

}  // namespace
}  // namespace xsact::feature
