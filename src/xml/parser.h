// From-scratch, dependency-free XML parser — zero-copy arena edition.
//
// Supports the XML subset needed by realistic data files: elements,
// attributes (single/double quoted), character data, entity references
// (&amp; &lt; &gt; &quot; &apos; plus numeric &#NN; / &#xHH;), comments,
// CDATA sections, processing instructions, XML declarations and DOCTYPE
// (skipped). Namespaces are treated as part of the tag name. Errors are
// reported with 1-based line/column positions, byte-identical to the
// seed parser's messages (pinned by tests/xml_parser_equiv_test.cc).
//
// The parser makes a single pass over the input. The produced Document
// RETAINS the input text: tags, attribute names/values and character data
// are string_views into that buffer (only the rare strings containing
// entity references are decoded into a side arena), and every Node is
// allocated contiguously in pre-order from a flat arena — no
// pointer-per-node DOM, no per-node string copies. Because arena order is
// pre-order, ParseCorpus fuses the NodeTable build into the parse: ids,
// parents and subtree extents are assigned as tags close.

#ifndef XSACT_XML_PARSER_H_
#define XSACT_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/statusor.h"
#include "xml/document.h"
#include "xml/path.h"

namespace xsact::xml {

/// Parser options.
struct ParseOptions {
  /// Drop text nodes that contain only whitespace (pretty-printing noise).
  bool skip_whitespace_text = true;
  /// Reject trailing non-whitespace content after the root element.
  bool strict_trailing = true;
};

/// Parses `input` into a Document, or returns a kParseError status with
/// the 1-based line:column of the first problem. The document keeps its
/// own copy of `input` as the view backing buffer; prefer ParseRetained /
/// ParseCorpus when the caller can hand the string over.
StatusOr<Document> Parse(std::string_view input, ParseOptions options = {});

/// Zero-copy variant: moves `text` into the Document (no copy at all —
/// the single fread of xml/io.cc is the only time corpus bytes are
/// touched before parsing).
StatusOr<Document> ParseRetained(std::string text, ParseOptions options = {});

/// A parsed corpus: the arena document plus the NodeTable built by the
/// same pass (fused — no second tree walk).
struct ParsedCorpus {
  Document doc;
  NodeTable table;
};

/// Parses `text` and emits document + node table in one fused pass.
StatusOr<ParsedCorpus> ParseCorpus(std::string text,
                                   ParseOptions options = {});

/// Decodes XML entities in a character-data run.
/// Unknown entities are passed through verbatim (lenient mode).
std::string DecodeEntities(std::string_view text);

}  // namespace xsact::xml

#endif  // XSACT_XML_PARSER_H_
