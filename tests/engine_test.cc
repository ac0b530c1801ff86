// Tests for the Xsact end-to-end facade.

#include <gtest/gtest.h>

#include "core/dod.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "data/vocab.h"
#include "engine/snapshot.h"
#include "engine/xsact.h"
#include "xml/writer.h"

namespace xsact::engine {
namespace {

TEST(XsactTest, FromXmlRejectsMalformedInput) {
  EXPECT_FALSE(Xsact::FromXml("<broken").ok());
  EXPECT_EQ(Xsact::FromXml("").status().code(), StatusCode::kParseError);
}

TEST(XsactTest, FromXmlParsesAndSearches) {
  auto xsact = Xsact::FromXml(
      "<catalog>"
      "<product><name>tomtom gps</name><price>100</price></product>"
      "<product><name>garmin gps</name><price>150</price></product>"
      "</catalog>");
  ASSERT_TRUE(xsact.ok()) << xsact.status();
  auto results = xsact->Search("gps");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST(SnapshotMemoryTest, AccountsEveryStructure) {
  data::ProductReviewsConfig config;
  config.num_products = 8;
  config.seed = 5;
  const std::string text =
      xml::WriteDocument(data::GenerateProductReviews(config));
  StatusOr<SnapshotPtr> snapshot = CorpusSnapshot::FromXml(text);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const MemoryStats m = (*snapshot)->memory_stats();
  const size_t nodes = (*snapshot)->table().size();
  ASSERT_GT(nodes, 0u);
  EXPECT_EQ(m.nodes, nodes);
  EXPECT_EQ(m.node_records_bytes, nodes * sizeof(xml::Node));
  // Pointer, parent and subtree end; no per-node path label.
  EXPECT_EQ(m.node_table_bytes, nodes * 16);
  EXPECT_EQ(m.source_text_bytes, text.size());  // no entities to decode
  EXPECT_EQ(m.postings_bytes, (*snapshot)->index_stats().compressed_bytes);
  EXPECT_EQ(m.category_index_bytes, nodes * 22);
  EXPECT_EQ(m.total_bytes(), m.node_records_bytes + m.node_table_bytes +
                                 m.source_text_bytes + m.postings_bytes +
                                 m.category_index_bytes);
  EXPECT_DOUBLE_EQ(m.PerNode(m.node_table_bytes), 16.0);
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ProductReviewsConfig config;
    config.num_products = 10;
    config.min_reviews = 6;
    config.max_reviews = 20;
    config.seed = 11;
    xsact_ = std::make_unique<Xsact>(data::GenerateProductReviews(config));
  }

  std::unique_ptr<Xsact> xsact_;
};

TEST_F(EngineFixture, SearchAndCompareEndToEnd) {
  CompareOptions options;
  options.selector.size_bound = 6;
  auto outcome = xsact_->SearchAndCompare("gps", 4, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GE(outcome->instance.num_results(), 2);
  EXPECT_LE(outcome->instance.num_results(), 4);
  EXPECT_TRUE(core::AllValid(outcome->instance, outcome->dfss,
                             options.selector.size_bound));
  EXPECT_EQ(outcome->total_dod,
            core::TotalDod(outcome->instance, outcome->dfss));
  EXPECT_GT(outcome->total_dod, 0);  // products genuinely differ
  EXPECT_FALSE(outcome->table.rows.empty());
  EXPECT_GE(outcome->select_seconds, 0.0);
}

TEST_F(EngineFixture, AlgorithmsAreSelectable) {
  int64_t dods[2] = {0, 0};
  int i = 0;
  for (core::SelectorKind kind :
       {core::SelectorKind::kSnippet, core::SelectorKind::kMultiSwap}) {
    CompareOptions options;
    options.algorithm = kind;
    options.selector.size_bound = 5;
    auto outcome = xsact_->SearchAndCompare("gps", 4, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    dods[i++] = outcome->total_dod;
  }
  EXPECT_GE(dods[1], dods[0]);  // multi-swap at least matches snippets
}

TEST_F(EngineFixture, CompareNeedsTwoResults) {
  auto results = xsact_->Search("gps");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const Status one = xsact_
                         ->CompareResults({results->at(0).root})
                         .status();
  EXPECT_EQ(one.code(), StatusCode::kInvalidArgument);
  const Status none = xsact_->CompareResults({}).status();
  EXPECT_EQ(none.code(), StatusCode::kInvalidArgument);
  const Status null_root =
      xsact_->CompareResults({results->at(0).root, nullptr}).status();
  EXPECT_EQ(null_root.code(), StatusCode::kInvalidArgument);
}

// Extraction reads the snapshot's per-node columns, so a root that is
// not a node of the snapshot's document (here: a copy of a real result,
// and a node of another document) is rejected, not compared.
TEST_F(EngineFixture, RootsOutsideTheSnapshotAreInvalid) {
  auto results = xsact_->Search("gps");
  ASSERT_TRUE(results.ok());
  ASSERT_GE(results->size(), 2u);
  const std::unique_ptr<xml::Node> copy = results->at(1).root->Clone();
  const Status cloned =
      xsact_->CompareResults({results->at(0).root, copy.get()}).status();
  EXPECT_EQ(cloned.code(), StatusCode::kInvalidArgument) << cloned;

  Xsact other(data::GenerateProductReviews({}));
  auto foreign = other.Search("gps");
  ASSERT_TRUE(foreign.ok());
  ASSERT_FALSE(foreign->empty());
  const Status mixed =
      xsact_->CompareResults({results->at(0).root, foreign->at(0).root})
          .status();
  EXPECT_EQ(mixed.code(), StatusCode::kInvalidArgument) << mixed;

  // The same roots through their own snapshot compare fine.
  EXPECT_TRUE(
      xsact_->CompareResults({results->at(0).root, results->at(1).root})
          .ok());
}

TEST_F(EngineFixture, DuplicateRootsCollapse) {
  auto results = xsact_->Search("gps");
  ASSERT_TRUE(results.ok());
  ASSERT_GE(results->size(), 2u);
  const Status dup = xsact_
                         ->CompareResults({results->at(0).root,
                                           results->at(0).root})
                         .status();
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST(XsactLiftTest, LiftResultsToBrandEntities) {
  data::OutdoorRetailerConfig config;
  config.num_brands = 5;
  config.min_products = 15;
  config.max_products = 30;
  Xsact xsact(data::GenerateOutdoorRetailer(config));

  // "jackets" matches product categories; lifting moves the comparison to
  // the owning brands ("men, jackets" scenario of the paper).
  CompareOptions options;
  options.lift_results_to = "brand";
  options.selector.size_bound = 6;
  auto outcome = xsact.SearchAndCompare("men jackets", 0, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_GE(outcome->instance.num_results(), 2);
  for (const std::string& header : outcome->table.headers) {
    // Brand results are labeled by the brand name.
    bool known = false;
    for (const std::string& b : data::OutdoorBrands()) {
      if (header == b) known = true;
    }
    EXPECT_TRUE(known) << header;
  }
  // The comparison surfaces the brands' category focus.
  bool category_row = false;
  for (const auto& row : outcome->table.rows) {
    if (row.label.find("category") != std::string::npos) category_row = true;
  }
  EXPECT_TRUE(category_row);
}

TEST(XsactLiftTest, LiftToMissingTagKeepsResults) {
  Xsact xsact(data::GenerateOutdoorRetailer({.num_brands = 3}));
  CompareOptions options;
  options.lift_results_to = "nonexistent";
  auto outcome = xsact.SearchAndCompare("jackets", 3, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GE(outcome->instance.num_results(), 2);
}

TEST(XsactThresholdTest, ThresholdChangesDod) {
  data::ProductReviewsConfig config;
  config.num_products = 8;
  config.min_reviews = 10;
  config.max_reviews = 30;
  Xsact xsact(data::GenerateProductReviews(config));
  CompareOptions strict;
  strict.diff_threshold = 2.0;  // occurrences must differ by 200%
  CompareOptions loose;
  loose.diff_threshold = 0.0;   // any difference counts
  auto a = xsact.SearchAndCompare("gps", 4, strict);
  auto b = xsact.SearchAndCompare("gps", 4, loose);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a->total_dod, b->total_dod);
}

}  // namespace
}  // namespace xsact::engine
