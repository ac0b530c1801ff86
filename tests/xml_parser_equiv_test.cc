// Parser-equivalence property suite: pins the zero-copy arena parser
// (and its fused NodeTable build) against a verbatim copy of the seed
// parser on all three demo corpora, randomized documents, and a
// malformed-input corpus (error parity: same kParseError, same
// line/column, same message bytes).

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "reference/dewey.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/writer.h"

namespace xsact::xml {
namespace {

using reference::DeweyId;

// ---------------------------------------------------------------------------
// Seed parser, reproduced verbatim (recursive descent over a char cursor,
// one unique_ptr node + owned strings per node, separate NodeTable walk).
// Only the child-iteration syntax of the DOM API is adapted.
// ---------------------------------------------------------------------------

namespace seed {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string DecodeEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    const size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back(text[i++]);  // lone '&': pass through leniently
      continue;
    }
    const std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (!entity.empty() && entity[0] == '#') {
      uint32_t code = 0;
      bool valid = entity.size() > 1;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size() && valid; ++k) {
          char c = entity[k];
          code *= 16;
          if (c >= '0' && c <= '9') {
            code += static_cast<uint32_t>(c - '0');
          } else if (c >= 'a' && c <= 'f') {
            code += static_cast<uint32_t>(c - 'a' + 10);
          } else if (c >= 'A' && c <= 'F') {
            code += static_cast<uint32_t>(c - 'A' + 10);
          } else {
            valid = false;
          }
        }
        valid = valid && entity.size() > 2;
      } else {
        for (size_t k = 1; k < entity.size() && valid; ++k) {
          char c = entity[k];
          if (c < '0' || c > '9') {
            valid = false;
          } else {
            code = code * 10 + static_cast<uint32_t>(c - '0');
          }
        }
      }
      if (!valid || code == 0 || code > 0x10FFFF) {
        out.append(text.substr(i, semi - i + 1));
      } else if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      // Unknown named entity: keep verbatim.
      out.append(text.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool Match(std::string_view literal) {
    if (input_.substr(pos_).substr(0, literal.size()) != literal) return false;
    for (size_t i = 0; i < literal.size(); ++i) Advance();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  size_t pos() const { return pos_; }
  std::string_view Slice(size_t from, size_t to) const {
    return input_.substr(from, to - from);
  }

  Status Error(std::string message) const {
    return Status::ParseError("line " + std::to_string(line_) + ", column " +
                              std::to_string(column_) + ": " +
                              std::move(message));
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class ParserImpl {
 public:
  ParserImpl(std::string_view input, ParseOptions options)
      : cur_(input), options_(options) {}

  StatusOr<Document> Run() {
    XSACT_RETURN_IF_ERROR(SkipProlog());
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return cur_.Error("expected root element");
    }
    std::unique_ptr<Node> root;
    XSACT_RETURN_IF_ERROR(ParseElement(&root));
    // Trailing misc: whitespace, comments, PIs.
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) break;
      if (cur_.Match("<!--")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("-->"));
        continue;
      }
      if (cur_.Match("<?")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("?>"));
        continue;
      }
      if (options_.strict_trailing) {
        return cur_.Error("unexpected content after root element");
      }
      break;
    }
    return Document(std::move(root));
  }

 private:
  Status SkipProlog() {
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.Match("<?")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("?>"));
      } else if (cur_.Match("<!--")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (cur_.Match("<!DOCTYPE") || cur_.Match("<!doctype")) {
        XSACT_RETURN_IF_ERROR(SkipDoctype());
      } else {
        return Status::Ok();
      }
    }
  }

  Status SkipUntil(std::string_view terminator) {
    while (!cur_.AtEnd()) {
      if (cur_.Match(terminator)) return Status::Ok();
      cur_.Advance();
    }
    return cur_.Error("unterminated construct, expected '" +
                      std::string(terminator) + "'");
  }

  Status SkipDoctype() {
    // DOCTYPE may contain an internal subset in brackets.
    int bracket_depth = 0;
    while (!cur_.AtEnd()) {
      char c = cur_.Advance();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return Status::Ok();
    }
    return cur_.Error("unterminated DOCTYPE");
  }

  Status ParseName(std::string* out) {
    if (cur_.AtEnd() || !IsNameStartChar(cur_.Peek())) {
      return cur_.Error("expected a name");
    }
    const size_t start = cur_.pos();
    cur_.Advance();
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) cur_.Advance();
    *out = std::string(cur_.Slice(start, cur_.pos()));
    return Status::Ok();
  }

  Status ParseAttributes(Node* element, bool* self_closing) {
    *self_closing = false;
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) return cur_.Error("unterminated start tag");
      if (cur_.Match("/>")) {
        *self_closing = true;
        return Status::Ok();
      }
      if (cur_.Match(">")) return Status::Ok();
      std::string name;
      XSACT_RETURN_IF_ERROR(ParseName(&name));
      cur_.SkipWhitespace();
      if (cur_.AtEnd() || cur_.Peek() != '=') {
        return cur_.Error("expected '=' after attribute name '" + name + "'");
      }
      cur_.Advance();  // '='
      cur_.SkipWhitespace();
      if (cur_.AtEnd() || (cur_.Peek() != '"' && cur_.Peek() != '\'')) {
        return cur_.Error("expected quoted attribute value");
      }
      const char quote = cur_.Advance();
      const size_t start = cur_.pos();
      while (!cur_.AtEnd() && cur_.Peek() != quote) cur_.Advance();
      if (cur_.AtEnd()) return cur_.Error("unterminated attribute value");
      std::string value = DecodeEntities(cur_.Slice(start, cur_.pos()));
      cur_.Advance();  // closing quote
      element->AddAttribute(std::move(name), std::move(value));
    }
  }

  Status ParseElement(std::unique_ptr<Node>* out) {
    if (!cur_.Match("<")) return cur_.Error("expected '<'");
    std::string tag;
    XSACT_RETURN_IF_ERROR(ParseName(&tag));
    std::unique_ptr<Node> element = Node::MakeElement(tag);
    bool self_closing = false;
    XSACT_RETURN_IF_ERROR(ParseAttributes(element.get(), &self_closing));
    if (!self_closing) {
      XSACT_RETURN_IF_ERROR(ParseContent(element.get(), tag));
    }
    *out = std::move(element);
    return Status::Ok();
  }

  Status ParseContent(Node* element, const std::string& tag) {
    std::string pending_text;
    auto flush_text = [&]() {
      if (pending_text.empty()) return;
      if (!(options_.skip_whitespace_text && IsAllWhitespace(pending_text))) {
        element->AddChild(Node::MakeText(DecodeEntities(pending_text)));
      }
      pending_text.clear();
    };

    for (;;) {
      if (cur_.AtEnd()) {
        return cur_.Error("unterminated element <" + tag + ">");
      }
      if (cur_.Peek() == '<') {
        if (cur_.Match("</")) {
          flush_text();
          std::string close_tag;
          XSACT_RETURN_IF_ERROR(ParseName(&close_tag));
          cur_.SkipWhitespace();
          if (!cur_.Match(">")) {
            return cur_.Error("malformed end tag </" + close_tag + ">");
          }
          if (close_tag != tag) {
            return cur_.Error("mismatched end tag: expected </" + tag +
                              ">, found </" + close_tag + ">");
          }
          return Status::Ok();
        }
        if (cur_.Match("<!--")) {
          XSACT_RETURN_IF_ERROR(SkipUntil("-->"));
          continue;
        }
        if (cur_.Match("<![CDATA[")) {
          flush_text();
          const size_t start = cur_.pos();
          size_t end = start;
          // Scan for the CDATA terminator without entity decoding.
          for (;;) {
            if (cur_.AtEnd()) return cur_.Error("unterminated CDATA section");
            if (cur_.Match("]]>")) {
              end = cur_.pos() - 3;
              break;
            }
            cur_.Advance();
          }
          element->AddChild(
              Node::MakeText(std::string(cur_.Slice(start, end))));
          continue;
        }
        if (cur_.Match("<?")) {
          XSACT_RETURN_IF_ERROR(SkipUntil("?>"));
          continue;
        }
        flush_text();
        std::unique_ptr<Node> child;
        XSACT_RETURN_IF_ERROR(ParseElement(&child));
        element->AddChild(std::move(child));
        continue;
      }
      pending_text.push_back(cur_.Advance());
    }
  }

  Cursor cur_;
  ParseOptions options_;
};

StatusOr<Document> Parse(std::string_view input, ParseOptions options = {}) {
  ParserImpl impl(input, options);
  return impl.Run();
}

/// The seed's NodeTable: recursive walk plus a pointer->id hash map.
struct Table {
  std::vector<const Node*> nodes;
  std::vector<DeweyId> deweys;
  std::vector<NodeId> parents;
  std::unordered_map<const Node*, NodeId> ids;

  static void BuildImpl(const Node* node, DeweyId* dewey, NodeId parent,
                        Table* t) {
    const NodeId my_id = static_cast<NodeId>(t->nodes.size());
    t->nodes.push_back(node);
    t->deweys.push_back(*dewey);
    t->parents.push_back(parent);
    int32_t child_index = 0;
    for (const Node* child : node->children()) {
      dewey->Push(child_index++);
      BuildImpl(child, dewey, my_id, t);
      dewey->Pop();
    }
  }

  static Table Build(const Document& doc) {
    Table t;
    if (!doc.empty()) {
      DeweyId dewey;
      BuildImpl(doc.root(), &dewey, kInvalidNodeId, &t);
      t.ids.reserve(t.nodes.size());
      for (size_t i = 0; i < t.nodes.size(); ++i) {
        t.ids.emplace(t.nodes[i], static_cast<NodeId>(i));
      }
    }
    return t;
  }

  std::string TagPath(NodeId id) const {
    std::vector<std::string> parts;
    for (NodeId cur = id; cur != kInvalidNodeId;
         cur = parents[static_cast<size_t>(cur)]) {
      const Node* n = nodes[static_cast<size_t>(cur)];
      parts.push_back(n->is_element() ? std::string(n->tag()) : "#text");
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!out.empty()) out.push_back('/');
      out += *it;
    }
    return out;
  }
};

}  // namespace seed

// ---------------------------------------------------------------------------
// Equivalence checks.
// ---------------------------------------------------------------------------

/// Parses `text` with both parsers and asserts byte-identical serialized
/// DOMs plus an identical NodeTable (ids, parents, subtree extents, tag
/// paths) from the fused build, the walk-based build over the arena
/// document, and the seed's recursive build. The tables store no Dewey
/// labels; the fused and walk tables' labels are derived from their
/// parent chains and sibling order and must equal the seed's stored ones.
void ExpectEquivalent(const std::string& text, ParseOptions options = {}) {
  StatusOr<Document> legacy = seed::Parse(text, options);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  StatusOr<ParsedCorpus> fused = ParseCorpus(text, options);
  ASSERT_TRUE(fused.ok()) << fused.status();
  const Document& arena_doc = fused->doc;
  const NodeTable& fused_table = fused->table;

  // Byte-identical serialization, compact and pretty.
  for (const int indent : {0, 2}) {
    WriteOptions wo;
    wo.indent_width = indent;
    ASSERT_EQ(WriteDocument(*legacy, wo), WriteDocument(arena_doc, wo))
        << "serialized DOM diverged (indent " << indent << ")";
  }

  const seed::Table legacy_table = seed::Table::Build(*legacy);
  const NodeTable walk_table = NodeTable::Build(arena_doc);
  const std::vector<DeweyId> fused_deweys =
      reference::DeweyLabels(fused_table);
  const std::vector<DeweyId> walk_deweys = reference::DeweyLabels(walk_table);

  ASSERT_EQ(legacy_table.nodes.size(), fused_table.size());
  ASSERT_EQ(walk_table.size(), fused_table.size());
  for (size_t i = 0; i < fused_table.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(legacy_table.parents[i], fused_table.parent(id));
    EXPECT_EQ(walk_table.parent(id), fused_table.parent(id));
    EXPECT_EQ(legacy_table.deweys[i], fused_deweys[i]);
    EXPECT_EQ(walk_deweys[i], fused_deweys[i]);
    EXPECT_EQ(walk_table.subtree_end(id), fused_table.subtree_end(id));
    // Extents match the seed's recursive subtree size.
    EXPECT_EQ(static_cast<size_t>(fused_table.subtree_end(id) - id),
              legacy_table.nodes[i]->SubtreeSize());
    EXPECT_EQ(legacy_table.TagPath(id), fused_table.TagPath(id));
    // IdOf round-trips without the seed's hash map.
    EXPECT_EQ(fused_table.IdOf(fused_table.node(id)), id);
    EXPECT_EQ(walk_table.IdOf(walk_table.node(id)), id);
    // Node content matches position by position.
    EXPECT_EQ(legacy_table.nodes[i]->kind(), fused_table.node(id)->kind());
    EXPECT_EQ(legacy_table.nodes[i]->tag(), fused_table.node(id)->tag());
    EXPECT_EQ(legacy_table.nodes[i]->text(), fused_table.node(id)->text());
    EXPECT_EQ(legacy_table.nodes[i]->attributes(),
              fused_table.node(id)->attributes());
    if (testing::Test::HasFailure()) {
      FAIL() << "first divergence at id " << id;
    }
  }
  // Foreign nodes resolve to kInvalidNodeId, as with the seed's map.
  EXPECT_EQ(fused_table.IdOf(legacy->root()), kInvalidNodeId);
  EXPECT_EQ(fused_table.IdOf(nullptr), kInvalidNodeId);
}

/// Both parsers must reject `text` with byte-identical status messages
/// (same error, same 1-based line/column).
void ExpectErrorParity(const std::string& text, ParseOptions options = {}) {
  StatusOr<Document> legacy = seed::Parse(text, options);
  StatusOr<Document> arena = Parse(text, options);
  ASSERT_FALSE(legacy.ok()) << "seed parser accepted: " << text;
  ASSERT_FALSE(arena.ok()) << "arena parser accepted: " << text;
  EXPECT_EQ(legacy.status().code(), arena.status().code()) << text;
  EXPECT_EQ(legacy.status().message(), arena.status().message()) << text;
}

TEST(ParserEquivTest, ProductReviewsCorpus) {
  data::ProductReviewsConfig config;
  config.num_products = 12;
  const std::string text =
      WriteDocument(data::GenerateProductReviews(config),
                    {.indent_width = 2, .declaration = true});
  ExpectEquivalent(text);
}

TEST(ParserEquivTest, OutdoorRetailerCorpus) {
  data::OutdoorRetailerConfig config;
  const std::string text =
      WriteDocument(data::GenerateOutdoorRetailer(config),
                    {.indent_width = 2, .declaration = true});
  ExpectEquivalent(text);
}

TEST(ParserEquivTest, MoviesCorpus) {
  const std::string text = WriteDocument(
      data::GenerateMovies({}), {.indent_width = 2, .declaration = true});
  ExpectEquivalent(text);
}

TEST(ParserEquivTest, SyntaxCornerCases) {
  const char* cases[] = {
      "<r/>",
      "<r a=\"1\" b='two'/>",
      "<r>text</r>",
      "<r>a&amp;b &lt;x&gt; &#65;&#x42; &unknown; fish & chips</r>",
      "<r><![CDATA[a < b && c > d]]></r>",
      "<r><![CDATA[]]></r>",
      "<r>pre<!-- c -->post</r>",       // one merged text node
      "<r>pre&am<!-- c -->p;post</r>",  // entity split across segments
      "<r>  <a/>  </r>",                // whitespace-only runs
      "<r>&#32;</r>",                   // entity-encoded whitespace is kept
      "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><r/>",
      "<r><?php echo 1; ?><a/></r>",
      "<ns:r ns:a=\"v\"><ns:c/></ns:r>",
      "<r/>  <!-- bye -->\n",
      "<r><a>1</a><a>2</a><b><c>x</c></b>mixed<d/></r>",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    ExpectEquivalent(text);
    ParseOptions keep_ws;
    keep_ws.skip_whitespace_text = false;
    ExpectEquivalent(text, keep_ws);
  }
  ParseOptions lenient;
  lenient.strict_trailing = false;
  ExpectEquivalent("<r/>junk after root", lenient);
}

TEST(ParserEquivTest, MalformedInputErrorParity) {
  const char* cases[] = {
      "",
      "   ",
      "plain text",
      "<",
      "<1tag/>",
      "<a>",
      "<a><b>",
      "<a></b>",
      "<a>\n<b>\n</c>\n</a>",
      "<a x></a>",
      "<a x=></a>",
      "<a x=\"1></a>",
      "<a x='1' y=\"2></a>",
      "<a /junk></a>",
      "<a><!-- unterminated",
      "<a><![CDATA[ unterminated",
      "<a><?pi unterminated",
      "<!DOCTYPE r [<!ELEMENT",
      "<?xml unterminated",
      "<a/><b/>",
      "<a/>junk",
      "<a></a junk>",
      "<a><b></b",
      "<a attr=\"v\"",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    ExpectErrorParity(text);
  }
}

// ---------------------------------------------------------------------------
// Property: random trees serialized both compact and pretty parse to
// equivalent DOMs + tables under both parsers.
// ---------------------------------------------------------------------------

void BuildRandomTree(Rng& rng, Node* node, int depth, int* budget) {
  const int children = static_cast<int>(rng.Range(0, depth > 0 ? 4 : 0));
  for (int c = 0; c < children && *budget > 0; ++c) {
    --*budget;
    const bool last_is_text =
        node->child_count() > 0 && node->last_child()->is_text();
    if (!last_is_text && rng.Chance(0.3)) {
      node->AddChild(Node::MakeText("text & <" + std::to_string(rng.Below(100)) +
                                    "> \"quoted\""));
    } else {
      Node* child = node->AddElement("el" + std::to_string(rng.Below(6)));
      if (rng.Chance(0.4)) {
        child->AddAttribute("attr", "v&'" + std::to_string(rng.Below(50)));
      }
      BuildRandomTree(rng, child, depth - 1, budget);
    }
  }
}

class ParserEquivProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserEquivProperty, RandomTrees) {
  Rng rng(GetParam());
  auto root = Node::MakeElement("root");
  int budget = 60;
  BuildRandomTree(rng, root.get(), 5, &budget);
  for (const int indent : {0, 2}) {
    WriteOptions wo;
    wo.indent_width = indent;
    ExpectEquivalent(WriteNode(*root, wo));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserEquivProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace xsact::xml
