// Unit tests for the entity identifier (XSeek-style node categorization).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "data/product_reviews.h"
#include "entity/category_index.h"
#include "entity/entity_identifier.h"
#include "xml/parser.h"

namespace xsact::entity {
namespace {

using xml::Document;
using xml::Parse;

Document Doc(std::string_view text) {
  auto d = Parse(text);
  EXPECT_TRUE(d.ok()) << d.status();
  return std::move(d).value();
}

TEST(NodeCategoryTest, Names) {
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kEntity), "entity");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kAttribute), "attribute");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kMultiAttribute),
            "multi-attribute");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kConnection), "connection");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kValue), "value");
}

TEST(EntityIdentifierTest, PaperShapeCategories) {
  // The Figure-1 structure: products > product > reviews > review > pros >
  // pro; review has single-valued leaves too.
  Document doc = Doc(
      "<products>"
      "  <product>"
      "    <name>gps one</name>"
      "    <reviews>"
      "      <review><stars>4</stars>"
      "        <pros><pro>compact</pro><pro>accurate</pro></pros></review>"
      "      <review><stars>5</stars><pros><pro>compact</pro></pros></review>"
      "    </reviews>"
      "  </product>"
      "  <product><name>gps two</name><reviews>"
      "      <review><stars>2</stars><pros><pro>cheap</pro></pros></review>"
      "      <review><stars>3</stars><pros><pro>cheap</pro></pros></review>"
      "  </reviews></product>"
      "</products>");
  const EntitySchema schema = InferSchema(doc);

  EXPECT_EQ(schema.CategoryOf("products", "product"), NodeCategory::kEntity);
  EXPECT_EQ(schema.CategoryOf("reviews", "review"), NodeCategory::kEntity);
  EXPECT_EQ(schema.CategoryOf("pros", "pro"), NodeCategory::kMultiAttribute);
  EXPECT_EQ(schema.CategoryOf("product", "name"), NodeCategory::kAttribute);
  EXPECT_EQ(schema.CategoryOf("review", "stars"), NodeCategory::kAttribute);
  EXPECT_EQ(schema.CategoryOf("product", "reviews"),
            NodeCategory::kConnection);
  EXPECT_EQ(schema.CategoryOf("review", "pros"), NodeCategory::kConnection);
}

TEST(EntityIdentifierTest, RepeatedLeafIsMultiAttributeNotEntity) {
  Document doc = Doc("<m><genres><genre>action</genre><genre>drama</genre>"
                     "</genres></m>");
  const EntitySchema schema = InferSchema(doc);
  EXPECT_EQ(schema.CategoryOf("genres", "genre"),
            NodeCategory::kMultiAttribute);
}

TEST(EntityIdentifierTest, SingleOccurrenceStaysAttributeOrConnection) {
  Document doc = Doc("<r><meta><author>me</author></meta></r>");
  const EntitySchema schema = InferSchema(doc);
  EXPECT_EQ(schema.CategoryOf("r", "meta"), NodeCategory::kConnection);
  EXPECT_EQ(schema.CategoryOf("meta", "author"), NodeCategory::kAttribute);
}

TEST(EntityIdentifierTest, RepetitionAnywhereMarksTheTagPair) {
  // A tag repeated under SOME parent instance is set-like under that
  // parent tag everywhere.
  Document doc = Doc(
      "<r><box><item><x>1</x></item></box>"
      "<box><item><x>1</x></item><item><x>2</x></item></box></r>");
  const EntitySchema schema = InferSchema(doc);
  EXPECT_EQ(schema.CategoryOf("box", "item"), NodeCategory::kEntity);
}

TEST(EntityIdentifierTest, CategoryOfNode) {
  Document doc = Doc("<r><a><b>1</b><b>2</b></a></r>");
  const EntitySchema schema = InferSchema(doc);
  const xml::Node* a = doc.root()->FirstChildElement("a");
  const xml::Node* b = a->FirstChildElement("b");
  EXPECT_EQ(schema.CategoryOf(*a), NodeCategory::kConnection);
  EXPECT_EQ(schema.CategoryOf(*b), NodeCategory::kMultiAttribute);
  EXPECT_EQ(schema.CategoryOf(*b->first_child()), NodeCategory::kValue);
  // Unknown pair falls back on structure.
  Document other = Doc("<z><leaf>v</leaf></z>");
  EXPECT_EQ(schema.CategoryOf(*other.root()->FirstChildElement("leaf")),
            NodeCategory::kAttribute);
}

TEST(EntityIdentifierTest, OwningEntityWalksUpToEntity) {
  Document doc = Doc(
      "<products><product><reviews>"
      "<review><pros><pro>a</pro><pro>b</pro></pros></review>"
      "<review><pros><pro>a</pro></pros></review>"
      "</reviews></product>"
      "<product><reviews><review><pros><pro>c</pro></pros></review>"
      "<review><pros><pro>c</pro></pros></review></reviews></product>"
      "</products>");
  const EntitySchema schema = InferSchema(doc);
  const xml::Node* product = doc.root()->ChildElements("product")[0];
  const xml::Node* review =
      product->FirstChildElement("reviews")->ChildElements("review")[0];
  const xml::Node* pro =
      review->FirstChildElement("pros")->ChildElements("pro")[0];
  EXPECT_EQ(schema.OwningEntity(*pro, *product), review);
  // The bounding root acts as its own entity.
  EXPECT_EQ(schema.OwningEntity(*product, *product), product);
  // A node whose ancestors hold no entity returns the bound.
  EXPECT_EQ(schema.OwningEntity(*review, *review), review);
}

TEST(EntityIdentifierTest, InferSchemaFromRootsMatchesWholeDocument) {
  const xml::Document doc = data::GenerateProductReviews(
      {.num_products = 4, .min_reviews = 3, .max_reviews = 6, .seed = 5});
  const EntitySchema whole = InferSchema(doc);
  std::vector<const xml::Node*> roots;
  for (const xml::Node* p : doc.root()->ChildElements("product")) {
    roots.push_back(p);
  }
  const EntitySchema partial = InferSchemaFromRoots(roots);
  EXPECT_EQ(partial.CategoryOf("reviews", "review"), NodeCategory::kEntity);
  EXPECT_EQ(partial.CategoryOf("pros", "pro"), NodeCategory::kMultiAttribute);
  EXPECT_EQ(whole.CategoryOf("reviews", "review"), NodeCategory::kEntity);
}

// The per-string sort ranks order ids exactly as their strings compare,
// for tags, observation attributes and observation values.
TEST(CategoryIndexTest, SortRanksFollowStringOrder) {
  const xml::Document doc = data::GenerateProductReviews(
      {.num_products = 4, .min_reviews = 3, .max_reviews = 6, .seed = 5});
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const DocumentCategoryIndex index(table, InferSchema(doc));
  auto check = [](size_t n, auto&& str, auto&& rank) {
    ASSERT_GT(n, 1u);
    std::vector<int32_t> by_rank(n, -1);
    for (size_t i = 0; i < n; ++i) {
      const int32_t id = static_cast<int32_t>(i);
      ASSERT_LT(rank(id), n);
      ASSERT_EQ(by_rank[rank(id)], -1) << "rank reused";
      by_rank[rank(id)] = id;
    }
    for (size_t r = 1; r < n; ++r) {
      EXPECT_LT(str(by_rank[r - 1]), str(by_rank[r]));
    }
  };
  check(
      index.num_tags(), [&](int32_t id) { return index.tag(id); },
      [&](int32_t id) { return index.tag_rank(id); });
  check(
      index.num_obs_attrs(), [&](int32_t id) { return index.obs_attr(id); },
      [&](int32_t id) { return index.obs_attr_rank(id); });
  check(
      index.num_obs_values(), [&](int32_t id) { return index.obs_value(id); },
      [&](int32_t id) { return index.obs_value_rank(id); });
}

// Every index gets its own id space, so catalog memos never mix the ids
// of two documents.
TEST(CategoryIndexTest, IdSpacesAreDistinct) {
  const xml::Document doc = data::GenerateProductReviews(
      {.num_products = 2, .min_reviews = 1, .max_reviews = 2, .seed = 1});
  const xml::NodeTable table = xml::NodeTable::Build(doc);
  const EntitySchema schema = InferSchema(doc);
  const DocumentCategoryIndex a(table, schema);
  const DocumentCategoryIndex b(table, schema);
  EXPECT_NE(a.id_space(), 0u);
  EXPECT_NE(a.id_space(), b.id_space());
}

TEST(EntityIdentifierTest, EmptyDocument) {
  xml::Document empty;
  const EntitySchema schema = InferSchema(empty);
  EXPECT_TRUE(schema.Entries().empty());
}

TEST(EntityIdentifierTest, SetAndContains) {
  EntitySchema schema;
  EXPECT_FALSE(schema.Contains("a", "b"));
  schema.Set("a", "b", NodeCategory::kEntity);
  EXPECT_TRUE(schema.Contains("a", "b"));
  EXPECT_EQ(schema.CategoryOf("a", "b"), NodeCategory::kEntity);
  schema.Set("a", "b", NodeCategory::kAttribute);  // override
  EXPECT_EQ(schema.CategoryOf("a", "b"), NodeCategory::kAttribute);
}

}  // namespace
}  // namespace xsact::entity
