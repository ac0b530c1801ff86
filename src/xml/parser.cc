#include "xml/parser.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/faultpoint.h"
#include "common/macros.h"

namespace xsact::xml {

namespace {

const fault::FaultPointId kFaultParseCorpus =
    fault::RegisterFaultPoint("parse.corpus");

/// Locale-independent character classes as flat 256-entry tables: the
/// seed parser routed every probe through std::isalpha/std::isspace
/// (locale-dependent, function call per character); these are single
/// array loads with the exact "C"-locale ASCII semantics the tokenizer
/// and the on-disk corpora assume.
struct CharTables {
  bool name_start[256] = {};
  bool name_char[256] = {};
  bool space[256] = {};

  constexpr CharTables() {
    for (int c = 'a'; c <= 'z'; ++c) name_start[c] = true;
    for (int c = 'A'; c <= 'Z'; ++c) name_start[c] = true;
    name_start[static_cast<unsigned char>('_')] = true;
    name_start[static_cast<unsigned char>(':')] = true;
    for (int c = 0; c < 256; ++c) name_char[c] = name_start[c];
    for (int c = '0'; c <= '9'; ++c) name_char[c] = true;
    name_char[static_cast<unsigned char>('-')] = true;
    name_char[static_cast<unsigned char>('.')] = true;
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
      space[static_cast<unsigned char>(c)] = true;
    }
  }
};

constexpr CharTables kChars;

inline bool IsNameStartChar(char c) {
  return kChars.name_start[static_cast<unsigned char>(c)];
}
inline bool IsNameChar(char c) {
  return kChars.name_char[static_cast<unsigned char>(c)];
}
inline bool IsSpaceChar(char c) {
  return kChars.space[static_cast<unsigned char>(c)];
}

bool IsAllWhitespace(std::string_view s) {
  for (const char c : s) {
    if (!IsSpaceChar(c)) return false;
  }
  return true;
}

}  // namespace

/// Single-pass zero-copy parser. Builds a flat pre-order record stream
/// (views into the retained source), then materializes the Document's
/// node arena — and, when requested, fills the NodeTable as it goes:
/// ids and parents when a node opens, subtree extents when its tag
/// closes.
class ArenaParser {
 public:
  ArenaParser(std::string text, ParseOptions options, NodeTable* table)
      : options_(options), table_(table) {
    doc_.source_ = std::make_unique<std::string>(std::move(text));
    in_ = *doc_.source_;
    // Pretty-printed corpora run ~16-24 input bytes per node; size the
    // record stream (and the fused table's columns) to avoid regrowth.
    const size_t estimated_nodes = in_.size() / 16 + 4;
    recs_.reserve(estimated_nodes);
    if (table_ != nullptr) {
      table_->parents_.reserve(estimated_nodes);
      table_->subtree_end_.reserve(estimated_nodes);
    }
  }

  StatusOr<Document> Run() {
    XSACT_RETURN_IF_ERROR(SkipProlog());
    if (AtEnd() || in_[pos_] != '<') {
      return Error("expected root element");
    }
    XSACT_RETURN_IF_ERROR(ParseStartTag());
    while (!open_.empty()) {
      XSACT_RETURN_IF_ERROR(ParseContentStep());
    }
    // Trailing misc: whitespace, comments, PIs.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) break;
      if (MatchLit("<!--")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("-->"));
        continue;
      }
      if (MatchLit("<?")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("?>"));
        continue;
      }
      if (options_.strict_trailing) {
        return Error("unexpected content after root element");
      }
      break;
    }
    return Materialize();
  }

 private:
  /// One node of the flat pre-order stream; links are indices so the
  /// stream can grow without invalidating anything.
  struct Rec {
    Node::Kind kind = Node::Kind::kText;
    int32_t parent = -1;
    int32_t first_child = -1;
    int32_t last_child = -1;
    int32_t next_sibling = -1;
    uint32_t child_count = 0;
    uint32_t attr_begin = 0;
    uint32_t attr_count = 0;
    std::string_view data;
  };

  bool AtEnd() const { return pos_ >= in_.size(); }

  /// Matches `literal` at the cursor (no temporaries — the seed built two
  /// substrings per probe here).
  bool MatchLit(std::string_view literal) {
    if (in_.size() - pos_ < literal.size() ||
        in_.compare(pos_, literal.size(), literal) != 0) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  void SkipWhitespace() {
    while (pos_ < in_.size() && IsSpaceChar(in_[pos_])) ++pos_;
  }

  /// Error at the current position; line/column are derived lazily from
  /// the prefix (the seed tracked them per Advance — same 1-based
  /// values, none of the per-character bookkeeping).
  Status Error(std::string message) const {
    size_t line = 1;
    size_t line_start = 0;
    for (size_t i = 0; i < pos_; ++i) {
      if (in_[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    return Status::ParseError("line " + std::to_string(line) + ", column " +
                              std::to_string(pos_ - line_start + 1) + ": " +
                              std::move(message));
  }

  Status SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (MatchLit("<?")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("?>"));
      } else if (MatchLit("<!--")) {
        XSACT_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (MatchLit("<!DOCTYPE") || MatchLit("<!doctype")) {
        XSACT_RETURN_IF_ERROR(SkipDoctype());
      } else {
        return Status::Ok();
      }
    }
  }

  Status SkipUntil(std::string_view terminator) {
    const size_t found = in_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      pos_ = in_.size();
      return Error("unterminated construct, expected '" +
                   std::string(terminator) + "'");
    }
    pos_ = found + terminator.size();
    return Status::Ok();
  }

  Status SkipDoctype() {
    // DOCTYPE may contain an internal subset in brackets.
    int bracket_depth = 0;
    while (!AtEnd()) {
      const char c = in_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return Status::Ok();
    }
    return Error("unterminated DOCTYPE");
  }

  Status ParseName(std::string_view* out) {
    if (AtEnd() || !IsNameStartChar(in_[pos_])) {
      return Error("expected a name");
    }
    const size_t start = pos_;
    ++pos_;
    while (pos_ < in_.size() && IsNameChar(in_[pos_])) ++pos_;
    *out = in_.substr(start, pos_ - start);
    return Status::Ok();
  }

  /// Appends a node to the pre-order stream under the innermost open
  /// element and — table mode — records its id and parent.
  int32_t OpenNode(Node::Kind kind, std::string_view data) {
    const int32_t id = static_cast<int32_t>(recs_.size());
    const int32_t parent = open_.empty() ? -1 : open_.back();
    Rec rec;
    rec.kind = kind;
    rec.parent = parent;
    rec.data = data;
    rec.attr_begin = static_cast<uint32_t>(attrs_.size());
    if (parent >= 0) {
      Rec& p = recs_[static_cast<size_t>(parent)];
      if (p.last_child >= 0) {
        recs_[static_cast<size_t>(p.last_child)].next_sibling = id;
      } else {
        p.first_child = id;
      }
      p.last_child = id;
      ++p.child_count;
    }
    recs_.push_back(rec);
    if (table_ != nullptr) {
      table_->parents_.push_back(parent);
      table_->subtree_end_.push_back(0);
    }
    return id;
  }

  /// Closes a node: its subtree extent is everything appended since it
  /// opened.
  void CloseNode(int32_t id) {
    if (table_ != nullptr) {
      table_->subtree_end_[static_cast<size_t>(id)] =
          static_cast<NodeId>(recs_.size());
    }
  }

  Status ParseStartTag() {
    ++pos_;  // '<'
    std::string_view tag;
    XSACT_RETURN_IF_ERROR(ParseName(&tag));
    const int32_t id = OpenNode(Node::Kind::kElement, tag);
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (MatchLit("/>")) {
        CloseNode(id);
        return Status::Ok();
      }
      if (MatchLit(">")) {
        open_.push_back(id);
        return Status::Ok();
      }
      std::string_view name;
      XSACT_RETURN_IF_ERROR(ParseName(&name));
      SkipWhitespace();
      if (AtEnd() || in_[pos_] != '=') {
        return Error("expected '=' after attribute name '" +
                     std::string(name) + "'");
      }
      ++pos_;  // '='
      SkipWhitespace();
      if (AtEnd() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
        return Error("expected quoted attribute value");
      }
      const char quote = in_[pos_++];
      const size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        pos_ = in_.size();
        return Error("unterminated attribute value");
      }
      const std::string_view raw = in_.substr(pos_, end - pos_);
      pos_ = end + 1;  // closing quote
      attrs_.emplace_back(name, NeedsDecoding(raw) ? Decoded(raw) : raw);
      ++recs_[static_cast<size_t>(id)].attr_count;
    }
  }

  /// One step of the innermost open element's content: a text run up to
  /// the next '<', then whatever markup follows it.
  Status ParseContentStep() {
    const size_t lt = in_.find('<', pos_);
    if (lt == std::string_view::npos) {
      pos_ = in_.size();
      return Error("unterminated element <" + CurrentTag() + ">");
    }
    if (lt > pos_) AddSegment(in_.substr(pos_, lt - pos_));
    pos_ = lt;

    if (MatchLit("</")) {
      FlushText();
      std::string_view close_tag;
      XSACT_RETURN_IF_ERROR(ParseName(&close_tag));
      SkipWhitespace();
      if (!MatchLit(">")) {
        return Error("malformed end tag </" + std::string(close_tag) + ">");
      }
      const int32_t id = open_.back();
      if (close_tag != recs_[static_cast<size_t>(id)].data) {
        return Error("mismatched end tag: expected </" + CurrentTag() +
                     ">, found </" + std::string(close_tag) + ">");
      }
      CloseNode(id);
      open_.pop_back();
      return Status::Ok();
    }
    if (MatchLit("<!--")) return SkipUntil("-->");
    if (MatchLit("<![CDATA[")) {
      FlushText();
      const size_t end = in_.find("]]>", pos_);
      if (end == std::string_view::npos) {
        pos_ = in_.size();
        return Error("unterminated CDATA section");
      }
      // CDATA is verbatim: a direct view, no entity decoding.
      const int32_t id =
          OpenNode(Node::Kind::kText, in_.substr(pos_, end - pos_));
      CloseNode(id);
      pos_ = end + 3;
      return Status::Ok();
    }
    if (MatchLit("<?")) return SkipUntil("?>");
    FlushText();
    return ParseStartTag();
  }

  std::string CurrentTag() const {
    return std::string(recs_[static_cast<size_t>(open_.back())].data);
  }

  static bool NeedsDecoding(std::string_view raw) {
    return std::memchr(raw.data(), '&', raw.size()) != nullptr;
  }

  /// Decodes into the document's side arena and returns a stable view.
  std::string_view Decoded(std::string_view raw) {
    doc_.decoded_.push_back(DecodeEntities(raw));
    return doc_.decoded_.back();
  }

  void AddSegment(std::string_view segment) {
    if (!segment_entity_ && NeedsDecoding(segment)) segment_entity_ = true;
    segments_.push_back(segment);
  }

  /// Emits the accumulated text run (segments are split by comments and
  /// PIs, which the seed parser skipped mid-run) as one text node. The
  /// whitespace check runs over the RAW bytes, and multi-segment or
  /// entity-bearing runs are concatenated and decoded as one string —
  /// both exactly as the seed did with its char-by-char pending buffer.
  void FlushText() {
    if (segments_.empty()) return;
    bool all_whitespace = true;
    for (const std::string_view s : segments_) {
      if (!IsAllWhitespace(s)) {
        all_whitespace = false;
        break;
      }
    }
    if (!(options_.skip_whitespace_text && all_whitespace)) {
      std::string_view data;
      if (segments_.size() == 1 && !segment_entity_) {
        data = segments_[0];  // zero-copy: view straight into the source
      } else if (segments_.size() == 1) {
        data = Decoded(segments_[0]);
      } else {
        scratch_.clear();
        for (const std::string_view s : segments_) scratch_.append(s);
        data = Decoded(scratch_);
      }
      CloseNode(OpenNode(Node::Kind::kText, data));
    }
    segments_.clear();
    segment_entity_ = false;
  }

  /// Converts the record stream into the Document's contiguous node
  /// arena (indices -> pointers) and finishes the fused NodeTable.
  Document Materialize() {
    const size_t n = recs_.size();
    doc_.arena_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Rec& rec = recs_[i];
      doc_.arena_.emplace_back(rec.kind, static_cast<int32_t>(i), rec.data,
                               rec.child_count);
      if (rec.attr_count > 0) {
        const auto begin =
            attrs_.begin() + static_cast<ptrdiff_t>(rec.attr_begin);
        doc_.arena_.back().attributes_.assign(
            begin, begin + static_cast<ptrdiff_t>(rec.attr_count));
      }
    }
    // Second pass: indices -> pointers, now that the base is final (the
    // reserve guarantees no reallocation happened while emplacing).
    Node* base = doc_.arena_.data();
    for (size_t i = 0; i < n; ++i) {
      const Rec& rec = recs_[i];
      Node& node = base[i];
      node.parent_ = rec.parent >= 0 ? base + rec.parent : nullptr;
      node.first_child_ =
          rec.first_child >= 0 ? base + rec.first_child : nullptr;
      node.last_child_ = rec.last_child >= 0 ? base + rec.last_child : nullptr;
      node.next_sibling_ =
          rec.next_sibling >= 0 ? base + rec.next_sibling : nullptr;
    }
    doc_.root_ = n > 0 ? base : nullptr;
    if (table_ != nullptr) {
      table_->nodes_.resize(n);
      for (size_t i = 0; i < n; ++i) table_->nodes_[i] = base + i;
    }
    return std::move(doc_);
  }

  Document doc_;
  std::string_view in_;
  size_t pos_ = 0;
  ParseOptions options_;
  NodeTable* table_;

  std::vector<Rec> recs_;
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
  std::vector<int32_t> open_;   // ids of the open-element chain
  std::vector<std::string_view> segments_;
  bool segment_entity_ = false;
  std::string scratch_;
};

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

StatusOr<Document> Parse(std::string_view input, ParseOptions options) {
  return ParseRetained(std::string(input), options);
}

StatusOr<Document> ParseRetained(std::string text, ParseOptions options) {
  ArenaParser parser(std::move(text), options, nullptr);
  return parser.Run();
}

StatusOr<ParsedCorpus> ParseCorpus(std::string text, ParseOptions options) {
  XSACT_INJECT_FAULT(kFaultParseCorpus);
  ParsedCorpus corpus;
  ArenaParser parser(std::move(text), options, &corpus.table);
  XSACT_ASSIGN_OR_RETURN(corpus.doc, parser.Run());
  return corpus;
}

}  // namespace xsact::xml
