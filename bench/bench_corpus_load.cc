// bench_corpus_load — the zero-copy arena load path (ParseCorpus: one
// pass emitting the arena DOM + fused NodeTable) vs a faithful in-file
// reproduction of the seed's corpus load:
//
//   * recursive-descent parser over a per-character cursor with
//     line/column tracking, building one heap node per XML node with
//     owned tag/text/attribute std::strings and vector<unique_ptr>
//     children (the seed's exact DOM representation),
//   * a separate full-tree NodeTable walk assigning ids/parents/Deweys
//     recursively plus the unordered_map<const Node*, NodeId> IdOf side
//     table.
//
// Equivalence gate (exit non-zero on failure): on every (corpus, scale)
// the serialized DOMs must be byte-identical (compact and pretty) and
// the node tables must agree exactly — ids, parents, Dewey labels,
// subtree extents and tag paths. The fused table stores no Dewey
// labels; its side of that comparison derives them from the parent
// chain and sibling order (reference::DeweyLabels, one linear pass,
// outside the timed load).
//
// Speedup gate: >= 3x end-to-end corpus load (text -> DOM + table) at
// every corpus's largest scale. Emits machine-readable
// BENCH_corpus_load.json.

#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "reference/dewey.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/writer.h"

namespace {

using namespace xsact;

// ---------------------------------------------------------------------------
// Legacy substrate: the seed's DOM, parser and node table, reproduced.
// ---------------------------------------------------------------------------

namespace legacy {

/// The seed's node: owned strings, one heap allocation per node plus a
/// unique_ptr per child edge.
struct Node {
  bool element = false;
  std::string tag;
  std::string text;
  Node* parent = nullptr;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<Node>> children;

  size_t SubtreeSize() const {
    size_t n = 1;
    for (const auto& c : children) n += c->SubtreeSize();
    return n;
  }
};

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}
bool IsAllWhitespace(const std::string& s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// The seed's cursor: per-character Advance with line/column tracking.
struct Cursor {
  std::string_view input;
  size_t pos = 0;
  int line = 1;
  int column = 1;

  bool AtEnd() const { return pos >= input.size(); }
  char Peek() const { return input[pos]; }
  char Advance() {
    char c = input[pos++];
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    return c;
  }
  bool Match(std::string_view literal) {
    if (input.substr(pos).substr(0, literal.size()) != literal) return false;
    for (size_t i = 0; i < literal.size(); ++i) Advance();
    return true;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }
  std::string_view Slice(size_t from, size_t to) const {
    return input.substr(from, to - from);
  }
};

/// The seed's recursive-descent parser. The bench corpora are
/// well-formed, so malformed input aborts (error parity is pinned by
/// tests/xml_parser_equiv_test.cc, not here).
struct Parser {
  Cursor cur;

  explicit Parser(std::string_view input) { cur.input = input; }

  [[noreturn]] void Die(const char* what) {
    std::fprintf(stderr, "legacy parser failed: %s (line %d)\n", what,
                 cur.line);
    std::exit(1);
  }

  void SkipUntil(std::string_view terminator) {
    while (!cur.AtEnd()) {
      if (cur.Match(terminator)) return;
      cur.Advance();
    }
    Die("unterminated construct");
  }

  std::string ParseName() {
    if (cur.AtEnd() || !IsNameStartChar(cur.Peek())) Die("expected a name");
    const size_t start = cur.pos;
    cur.Advance();
    while (!cur.AtEnd() && IsNameChar(cur.Peek())) cur.Advance();
    return std::string(cur.Slice(start, cur.pos));
  }

  bool ParseAttributes(Node* element) {
    for (;;) {
      cur.SkipWhitespace();
      if (cur.AtEnd()) Die("unterminated start tag");
      if (cur.Match("/>")) return true;
      if (cur.Match(">")) return false;
      std::string name = ParseName();
      cur.SkipWhitespace();
      if (cur.AtEnd() || cur.Peek() != '=') Die("expected '='");
      cur.Advance();
      cur.SkipWhitespace();
      if (cur.AtEnd() || (cur.Peek() != '"' && cur.Peek() != '\'')) {
        Die("expected quoted attribute value");
      }
      const char quote = cur.Advance();
      const size_t start = cur.pos;
      while (!cur.AtEnd() && cur.Peek() != quote) cur.Advance();
      if (cur.AtEnd()) Die("unterminated attribute value");
      element->attributes.emplace_back(
          std::move(name), xml::DecodeEntities(cur.Slice(start, cur.pos)));
      cur.Advance();
    }
  }

  std::unique_ptr<Node> ParseElement() {
    if (!cur.Match("<")) Die("expected '<'");
    auto element = std::make_unique<Node>();
    element->element = true;
    element->tag = ParseName();
    const bool self_closing = ParseAttributes(element.get());
    if (!self_closing) ParseContent(element.get());
    return element;
  }

  void ParseContent(Node* element) {
    std::string pending_text;
    auto flush_text = [&]() {
      if (pending_text.empty()) return;
      if (!IsAllWhitespace(pending_text)) {
        auto text = std::make_unique<Node>();
        text->text = xml::DecodeEntities(pending_text);
        text->parent = element;
        element->children.push_back(std::move(text));
      }
      pending_text.clear();
    };

    for (;;) {
      if (cur.AtEnd()) Die("unterminated element");
      if (cur.Peek() == '<') {
        if (cur.Match("</")) {
          flush_text();
          const std::string close_tag = ParseName();
          cur.SkipWhitespace();
          if (!cur.Match(">")) Die("malformed end tag");
          if (close_tag != element->tag) Die("mismatched end tag");
          return;
        }
        if (cur.Match("<!--")) {
          SkipUntil("-->");
          continue;
        }
        if (cur.Match("<![CDATA[")) {
          flush_text();
          const size_t start = cur.pos;
          size_t end = start;
          for (;;) {
            if (cur.AtEnd()) Die("unterminated CDATA");
            if (cur.Match("]]>")) {
              end = cur.pos - 3;
              break;
            }
            cur.Advance();
          }
          auto text = std::make_unique<Node>();
          text->text = std::string(cur.Slice(start, end));
          text->parent = element;
          element->children.push_back(std::move(text));
          continue;
        }
        if (cur.Match("<?")) {
          SkipUntil("?>");
          continue;
        }
        flush_text();
        std::unique_ptr<Node> child = ParseElement();
        child->parent = element;
        element->children.push_back(std::move(child));
        continue;
      }
      pending_text.push_back(cur.Advance());
    }
  }

  std::unique_ptr<Node> Run() {
    for (;;) {
      cur.SkipWhitespace();
      if (cur.Match("<?")) {
        SkipUntil("?>");
      } else if (cur.Match("<!--")) {
        SkipUntil("-->");
      } else if (cur.Match("<!DOCTYPE") || cur.Match("<!doctype")) {
        int depth = 0;
        for (;;) {
          if (cur.AtEnd()) Die("unterminated DOCTYPE");
          const char c = cur.Advance();
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth <= 0) break;
        }
      } else {
        break;
      }
    }
    if (cur.AtEnd() || cur.Peek() != '<') Die("expected root element");
    return ParseElement();
  }
};

std::unique_ptr<Node> Parse(std::string_view text) {
  Parser parser(text);
  return parser.Run();
}

/// The seed's NodeTable: recursive full-tree walk plus the pointer->id
/// hash map backing IdOf.
struct Table {
  std::vector<const Node*> nodes;
  std::vector<reference::DeweyId> deweys;
  std::vector<xml::NodeId> parents;
  std::unordered_map<const Node*, xml::NodeId> ids;

  static void BuildImpl(const Node* node, reference::DeweyId* dewey,
                        xml::NodeId parent, Table* t) {
    const xml::NodeId my_id = static_cast<xml::NodeId>(t->nodes.size());
    t->nodes.push_back(node);
    t->deweys.push_back(*dewey);
    t->parents.push_back(parent);
    int32_t child_index = 0;
    for (const auto& child : node->children) {
      dewey->Push(child_index++);
      BuildImpl(child.get(), dewey, my_id, t);
      dewey->Pop();
    }
  }

  static Table Build(const Node* root) {
    Table t;
    reference::DeweyId dewey;
    BuildImpl(root, &dewey, xml::kInvalidNodeId, &t);
    t.ids.reserve(t.nodes.size());
    for (size_t i = 0; i < t.nodes.size(); ++i) {
      t.ids.emplace(t.nodes[i], static_cast<xml::NodeId>(i));
    }
    return t;
  }

  std::string TagPath(xml::NodeId id) const {
    std::vector<std::string> parts;
    for (xml::NodeId cur = id; cur != xml::kInvalidNodeId;
         cur = parents[static_cast<size_t>(cur)]) {
      const Node* n = nodes[static_cast<size_t>(cur)];
      parts.push_back(n->element ? n->tag : "#text");
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!out.empty()) out.push_back('/');
      out += *it;
    }
    return out;
  }
};

/// Serializer over the legacy DOM mirroring xml/writer.cc rule for rule,
/// so byte-identical output means identical logical trees.
void WriteImpl(const Node& node, int depth, int indent, std::string* out) {
  const bool pretty = indent > 0;
  auto append_indent = [&] {
    if (pretty) out->append(static_cast<size_t>(depth * indent), ' ');
  };
  if (!node.element) {
    append_indent();
    out->append(xml::EscapeText(node.text));
    if (pretty) out->push_back('\n');
    return;
  }
  append_indent();
  out->push_back('<');
  out->append(node.tag);
  for (const auto& [name, value] : node.attributes) {
    out->push_back(' ');
    out->append(name);
    out->append("=\"");
    out->append(xml::EscapeAttribute(value));
    out->push_back('"');
  }
  if (node.children.empty()) {
    out->append("/>");
    if (pretty) out->push_back('\n');
    return;
  }
  if (node.children.size() == 1 && !node.children[0]->element) {
    out->push_back('>');
    out->append(xml::EscapeText(node.children[0]->text));
    out->append("</");
    out->append(node.tag);
    out->push_back('>');
    if (pretty) out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (pretty) out->push_back('\n');
  for (const auto& child : node.children) {
    WriteImpl(*child, depth + 1, indent, out);
  }
  append_indent();
  out->append("</");
  out->append(node.tag);
  out->push_back('>');
  if (pretty) out->push_back('\n');
}

std::string Write(const Node& root, int indent) {
  std::string out;
  WriteImpl(root, 0, indent, &out);
  return out;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct Workload {
  std::string corpus;
  std::string scale;  // "S" / "M" / "L"
  bool largest = false;
  std::string text;  // serialized corpus (the on-disk form)
};

std::vector<Workload> BuildWorkloads() {
  const xml::WriteOptions disk{.indent_width = 2, .declaration = true};
  std::vector<Workload> workloads;
  {
    const int scales[] = {16, 48, 96};
    const char* names[] = {"S", "M", "L"};
    for (int s = 0; s < 3; ++s) {
      data::ProductReviewsConfig config;
      config.num_products = scales[s];
      workloads.push_back(Workload{
          "product_reviews", names[s], s == 2,
          WriteDocument(data::GenerateProductReviews(config), disk)});
    }
  }
  {
    const int scales[] = {1, 2, 4};
    const char* names[] = {"S", "M", "L"};
    for (int s = 0; s < 3; ++s) {
      data::OutdoorRetailerConfig config;
      config.min_products = 18 * scales[s];
      config.max_products = 60 * scales[s];
      workloads.push_back(Workload{
          "outdoor_retailer", names[s], s == 2,
          WriteDocument(data::GenerateOutdoorRetailer(config), disk)});
    }
  }
  {
    const int scales[] = {1, 2, 4};
    const char* names[] = {"S", "M", "L"};
    for (int s = 0; s < 3; ++s) {
      data::MoviesConfig config;
      for (int& size : config.franchise_sizes) size *= scales[s];
      workloads.push_back(Workload{"movies", names[s], s == 2,
                                   WriteDocument(data::GenerateMovies(config),
                                                 disk)});
    }
  }
  return workloads;
}

/// Identity gate: byte-identical serialized DOM and identical node table
/// (ids, parents, Deweys, subtree extents, tag paths) between the legacy
/// load and the fused arena load.
bool CheckIdentity(const Workload& w) {
  bool ok = true;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "FAIL %s/%s: %s\n", w.corpus.c_str(),
                 w.scale.c_str(), what);
    ok = false;
  };

  const std::unique_ptr<legacy::Node> legacy_root = legacy::Parse(w.text);
  const legacy::Table legacy_table = legacy::Table::Build(legacy_root.get());
  StatusOr<xml::ParsedCorpus> fused = xml::ParseCorpus(w.text);
  if (!fused.ok()) {
    std::fprintf(stderr, "FAIL %s/%s: arena parse failed: %s\n",
                 w.corpus.c_str(), w.scale.c_str(),
                 fused.status().ToString().c_str());
    return false;
  }
  const xml::Document& doc = fused->doc;
  const xml::NodeTable& table = fused->table;
  const std::vector<reference::DeweyId> deweys =
      reference::DeweyLabels(table);

  for (const int indent : {0, 2}) {
    xml::WriteOptions wo;
    wo.indent_width = indent;
    if (legacy::Write(*legacy_root, indent) != WriteDocument(doc, wo)) {
      fail(indent == 0 ? "compact serialization diverged"
                       : "pretty serialization diverged");
    }
  }

  if (legacy_table.nodes.size() != table.size()) {
    fail("node counts diverged");
    return false;
  }
  for (size_t i = 0; i < table.size(); ++i) {
    const xml::NodeId id = static_cast<xml::NodeId>(i);
    if (legacy_table.parents[i] != table.parent(id)) {
      fail("parents diverged");
      return false;
    }
    if (!(legacy_table.deweys[i] == deweys[i])) {
      fail("Dewey labels diverged");
      return false;
    }
    if (legacy_table.nodes[i]->SubtreeSize() !=
        static_cast<size_t>(table.subtree_end(id) - id)) {
      fail("subtree extents diverged");
      return false;
    }
    if (legacy_table.TagPath(id) != table.TagPath(id)) {
      fail("tag paths diverged");
      return false;
    }
    if (table.IdOf(table.node(id)) != id) {
      fail("IdOf does not round-trip");
      return false;
    }
  }
  return ok;
}

struct Row {
  std::string corpus;
  std::string scale;
  bool largest = false;
  size_t bytes = 0;
  size_t nodes = 0;
  double legacy_ms = 0;
  double new_ms = 0;

  double Speedup() const { return new_ms > 0 ? legacy_ms / new_ms : 0; }
};

}  // namespace

int main() {
  bench::Header("corpus_load",
                "zero-copy arena load (fused parse -> DOM + NodeTable) vs "
                "the seed's owned-string DOM + recursive table walk");

  // Best-of-N: corpus load is deterministic, so the minimum is the
  // least-noisy estimate (medians wobble with machine load and would
  // flake the 3x gate).
  const int repeats = 9;
  bool gate_ok = true;
  std::vector<Row> rows;

  std::printf("%-17s %-2s %9s %8s | %10s %9s | %8s\n", "corpus", "sc",
              "bytes", "nodes", "legacy-ms", "new-ms", "speedup");
  for (const Workload& w : BuildWorkloads()) {
    if (!CheckIdentity(w)) gate_ok = false;

    Row row;
    row.corpus = w.corpus;
    row.scale = w.scale;
    row.largest = w.largest;
    row.bytes = w.text.size();
    {
      StatusOr<xml::ParsedCorpus> fused = xml::ParseCorpus(w.text);
      row.nodes = fused.ok() ? fused->table.size() : 0;
    }

    // Legacy load: parse into the owned-string DOM, then the recursive
    // table walk + IdOf hash map.
    row.legacy_ms =
        bench::TimeRepeated(repeats, [&] {
          const std::unique_ptr<legacy::Node> root = legacy::Parse(w.text);
          const legacy::Table table = legacy::Table::Build(root.get());
          if (table.nodes.empty()) std::exit(1);
        }).min() * 1e3;

    // New load: one fused pass (the std::string copy stands in for the
    // file read handing its buffer over).
    row.new_ms = bench::TimeRepeated(repeats, [&] {
                   StatusOr<xml::ParsedCorpus> corpus =
                       xml::ParseCorpus(std::string(w.text));
                   if (!corpus.ok() || corpus->table.size() == 0) {
                     std::exit(1);
                   }
                 }).min() * 1e3;

    std::printf("%-17s %-2s %9zu %8zu | %10.3f %9.3f | %7.2fx\n",
                row.corpus.c_str(), row.scale.c_str(), row.bytes, row.nodes,
                row.legacy_ms, row.new_ms, row.Speedup());
    rows.push_back(row);
  }
  bench::Rule();
  std::printf("peak RSS across all loads: %s\n",
              bench::HumanBytes(bench::PeakRssBytes()).c_str());

  for (const Row& row : rows) {
    if (row.largest && row.Speedup() < 3.0) {
      std::fprintf(stderr, "FAIL %s/%s: corpus-load speedup %.2fx < 3x\n",
                   row.corpus.c_str(), row.scale.c_str(), row.Speedup());
      gate_ok = false;
    }
  }

  FILE* json = std::fopen("BENCH_corpus_load.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"corpus_load\",\n  \"rows\": [\n");
    for (size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      std::fprintf(
          json,
          "    {\"corpus\": \"%s\", \"scale\": \"%s\", \"bytes\": %zu, "
          "\"nodes\": %zu, \"legacy_ms\": %.4f, \"new_ms\": %.4f, "
          "\"speedup\": %.2f}%s\n",
          row.corpus.c_str(), row.scale.c_str(), row.bytes, row.nodes,
          row.legacy_ms, row.new_ms, row.Speedup(),
          r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"peak_rss_bytes\": %zu,\n  \"gate_ok\": %s\n}\n",
                 bench::PeakRssBytes(), gate_ok ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_corpus_load.json\n");
  }

  if (!gate_ok) return 1;
  std::printf("gate OK: byte-identical serialized DOM + identical NodeTable "
              "on every (corpus, scale); >= 3x load speedup at every "
              "largest scale\n");
  return 0;
}
