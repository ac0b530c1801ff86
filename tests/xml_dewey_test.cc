// Unit tests for Dewey ids (the test/bench reference labels), the node
// table and path queries.

#include <gtest/gtest.h>

#include "reference/dewey.h"
#include "xml/parser.h"
#include "xml/path.h"

namespace xsact::xml {
namespace {

using reference::DeweyId;

DeweyId D(std::vector<int32_t> v) { return DeweyId(std::move(v)); }

TEST(DeweyTest, OrderingIsPreOrder) {
  EXPECT_LT(D({0}), D({0, 0}));      // ancestor before descendant
  EXPECT_LT(D({0, 0}), D({0, 1}));   // left sibling first
  EXPECT_LT(D({0, 9}), D({1}));      // whole subtree before next sibling
  EXPECT_LE(D({1}), D({1}));
  EXPECT_EQ(D({1, 2}), D({1, 2}));
}

TEST(DeweyTest, AncestorChecks) {
  EXPECT_TRUE(D({0}).IsAncestorOf(D({0, 3})));
  EXPECT_TRUE(D({0}).IsAncestorOrSelf(D({0})));
  EXPECT_FALSE(D({0}).IsAncestorOf(D({0})));
  EXPECT_FALSE(D({0, 1}).IsAncestorOf(D({0, 2, 1})));
  EXPECT_TRUE(D({}).IsAncestorOrSelf(D({5, 5})));  // root dominates all
}

TEST(DeweyTest, Lca) {
  EXPECT_EQ(DeweyId::Lca(D({0, 1, 2}), D({0, 1, 5})), D({0, 1}));
  EXPECT_EQ(DeweyId::Lca(D({0, 1}), D({0, 1, 5})), D({0, 1}));
  EXPECT_EQ(DeweyId::Lca(D({1}), D({2})), D({}));
  EXPECT_EQ(DeweyId::Lca(D({3, 3}), D({3, 3})), D({3, 3}));
}

TEST(DeweyTest, ParentAndToString) {
  EXPECT_EQ(D({1, 2}).Parent(), D({1}));
  EXPECT_EQ(D({}).Parent(), D({}));
  EXPECT_EQ(D({0, 2, 5}).ToString(), "0.2.5");
  EXPECT_EQ(D({}).ToString(), "ε");
}

class NodeTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<Document> doc = Parse(
        "<catalog>"
        "<product><name>alpha</name><price>10</price></product>"
        "<product><name>beta</name></product>"
        "</catalog>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    table_ = NodeTable::Build(doc_);
  }

  Document doc_;
  NodeTable table_;
};

TEST_F(NodeTableTest, PreOrderIdsAndDerivedDeweys) {
  // catalog=0, product=1, name=2, text=3, price=4, text=5, product=6, ...
  EXPECT_EQ(table_.size(), doc_.NodeCount());
  EXPECT_EQ(table_.node(0), doc_.root());
  const std::vector<DeweyId> labels = reference::DeweyLabels(table_);
  ASSERT_EQ(labels.size(), table_.size());
  EXPECT_EQ(labels[0], DeweyId());
  EXPECT_EQ(table_.node(1)->tag(), "product");
  EXPECT_EQ(labels[1], D({0}));
  EXPECT_EQ(table_.node(2)->tag(), "name");
  EXPECT_EQ(labels[2], D({0, 0}));
  EXPECT_EQ(table_.node(4)->tag(), "price");
  EXPECT_EQ(labels[4], D({0, 1}));
  EXPECT_EQ(table_.node(6)->tag(), "product");
  EXPECT_EQ(labels[6], D({1}));
  // Dewey order must equal id order everywhere.
  for (size_t i = 1; i < labels.size(); ++i) {
    EXPECT_LT(labels[i - 1], labels[i]);
  }
}

TEST_F(NodeTableTest, ParentLinks) {
  EXPECT_EQ(table_.parent(0), kInvalidNodeId);
  EXPECT_EQ(table_.parent(1), 0);
  EXPECT_EQ(table_.parent(2), 1);
}

TEST_F(NodeTableTest, IdOfRoundtrips) {
  for (size_t i = 0; i < table_.size(); ++i) {
    EXPECT_EQ(table_.IdOf(table_.node(static_cast<NodeId>(i))),
              static_cast<NodeId>(i));
  }
  Document other = Document::WithRoot("x");
  EXPECT_EQ(table_.IdOf(other.root()), kInvalidNodeId);
}

TEST_F(NodeTableTest, FindByDewey) {
  const std::vector<DeweyId> labels = reference::DeweyLabels(table_);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(reference::FindByDewey(labels, labels[i]),
              static_cast<NodeId>(i));
  }
  EXPECT_EQ(reference::FindByDewey(labels, D({9, 9})), kInvalidNodeId);
}

TEST_F(NodeTableTest, ColumnBytesArePinnedAt16PerNode) {
  // Node pointer 8 + parent 4 + subtree end 4. A new per-node column
  // must be a deliberate change to this test, never a silent one.
  static_assert(sizeof(NodeTable) == 3 * sizeof(std::vector<NodeId>),
                "NodeTable grew a member: account for it in ColumnBytes");
  EXPECT_EQ(table_.ColumnBytes(), table_.size() * 16);
  StatusOr<ParsedCorpus> fused = ParseCorpus(
      "<catalog><product><name>alpha</name></product></catalog>");
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_EQ(fused->table.ColumnBytes(), fused->table.size() * 16);
}

TEST_F(NodeTableTest, TagPath) {
  EXPECT_EQ(table_.TagPath(0), "catalog");
  EXPECT_EQ(table_.TagPath(2), "catalog/product/name");
  EXPECT_EQ(table_.TagPath(3), "catalog/product/name/#text");
}

TEST(PathTest, SelectPathFindsAllMatches) {
  StatusOr<Document> doc = Parse(
      "<c><p><n>1</n></p><p><n>2</n><n>3</n></p><q><n>4</n></q></c>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(SelectPath(*doc, "/c/p/n").size(), 3u);
  EXPECT_EQ(SelectPath(*doc, "c/p/n").size(), 3u);  // leading slash optional
  EXPECT_EQ(SelectPath(*doc, "/c/q/n").size(), 1u);
  EXPECT_EQ(SelectPath(*doc, "/c").size(), 1u);
  EXPECT_TRUE(SelectPath(*doc, "/wrong/p").empty());
  EXPECT_TRUE(SelectPath(*doc, "/c/missing").empty());
  EXPECT_TRUE(SelectPath(*doc, "").empty());
}

TEST(PathTest, SelectByTagIsRecursive) {
  StatusOr<Document> doc =
      Parse("<r><a><b><a/></b></a><a/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(SelectByTag(*doc->root(), "a").size(), 3u);
  EXPECT_EQ(SelectByTag(*doc->root(), "r").size(), 1u);  // includes root
  EXPECT_TRUE(SelectByTag(*doc->root(), "zzz").empty());
}

}  // namespace
}  // namespace xsact::xml
