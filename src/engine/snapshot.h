// CorpusSnapshot: the immutable tier of the XSACT serving stack.
//
// A snapshot bundles one corpus document with every read-only structure
// derived from it — node table, interner-backed inverted index, inferred
// entity schema, per-node category index — behind a shared_ptr<const>.
// After construction nothing in a snapshot ever mutates, so any number
// of concurrent queries (QuerySession, QueryService workers, plain
// threads) may evaluate against one snapshot simultaneously with no
// locking. Per-query mutable state lives in engine::QuerySession
// (session.h); the thread-pool executor on top is engine::QueryService
// (query_service.h).

#ifndef XSACT_ENGINE_SNAPSHOT_H_
#define XSACT_ENGINE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "search/search_engine.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace xsact::engine {

class CorpusSnapshot;

/// Memory accounting for a snapshot's inverted index: what the
/// block-compressed posting storage holds versus what the same postings
/// would cost in the uncompressed CSR layout it replaced. Surfaced by
/// the CLI's --stats flag and the bench_index_compress gate.
struct IndexStats {
  size_t terms = 0;
  size_t postings = 0;
  size_t compressed_bytes = 0;  ///< payload + skip entries + offsets
  size_t raw_csr_bytes = 0;     ///< 1 NodeId/posting + 1 offset/term
  double ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(raw_csr_bytes) /
                     static_cast<double>(compressed_bytes);
  }
};

/// Memory accounting for every per-corpus structure a snapshot holds,
/// in bytes in use (vector sizes, not capacities). Surfaced beside
/// IndexStats by the CLI's --stats flag and per dataset in /statz.
struct MemoryStats {
  size_t nodes = 0;
  size_t node_records_bytes = 0;  ///< xml::Node records (the node arena)
  size_t node_table_bytes = 0;    ///< NodeTable columns
  size_t source_text_bytes = 0;   ///< retained corpus text + decoded arena
  size_t postings_bytes = 0;      ///< compressed postings (IndexStats)
  size_t category_index_bytes = 0;  ///< DocumentCategoryIndex columns

  size_t total_bytes() const {
    return node_records_bytes + node_table_bytes + source_text_bytes +
           postings_bytes + category_index_bytes;
  }
  /// `bytes` spread over the corpus nodes (0 for an empty corpus).
  double PerNode(size_t bytes) const {
    return nodes == 0 ? 0.0
                      : static_cast<double>(bytes) /
                            static_cast<double>(nodes);
  }
};

/// How snapshots are shared: the snapshot is owned jointly by every
/// component serving queries over it (Xsact facade, QueryService,
/// in-flight sessions) and dies with the last of them.
using SnapshotPtr = std::shared_ptr<const CorpusSnapshot>;

/// Immutable, thread-safe corpus bundle. See file comment.
class CorpusSnapshot {
 public:
  /// Builds every derived structure for `doc`. O(document size).
  explicit CorpusSnapshot(
      xml::Document doc,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Builds from a fused-parse corpus (document + node table from one
  /// zero-copy pass; see xml::ParseCorpus).
  explicit CorpusSnapshot(
      xml::ParsedCorpus corpus,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Builds a shared snapshot from an already-parsed document.
  static SnapshotPtr Build(
      xml::Document doc,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Parses `xml_text` and builds a shared snapshot.
  static StatusOr<SnapshotPtr> FromXml(
      std::string_view xml_text,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Loads and parses an XML corpus file (single pre-sized read).
  static StatusOr<SnapshotPtr> FromFile(
      const std::string& path,
      search::SlcaAlgorithm algorithm = search::SlcaAlgorithm::kSlca);

  /// Structural validation of the derived index structures (per-block
  /// postings checksums, CSR consistency, id bounds). FromXml/FromFile
  /// run this before publishing a snapshot, so a corrupted or truncated
  /// corpus surfaces as kDataCorruption at load/reload time instead of
  /// undefined behavior on the query path.
  Status Validate() const;

  /// The immutable search tier (document, table, schema, indexes).
  const search::SearchEngine& engine() const { return engine_; }
  const search::CorpusIndex& corpus() const { return engine_.corpus(); }

  const xml::Document& document() const { return engine_.document(); }
  const xml::NodeTable& table() const { return engine_.table(); }
  const entity::EntitySchema& schema() const { return engine_.schema(); }
  const search::InvertedIndex& index() const { return engine_.index(); }
  const entity::DocumentCategoryIndex& category_index() const {
    return engine_.category_index();
  }

  /// Index memory accounting (see IndexStats).
  IndexStats index_stats() const {
    const search::InvertedIndex& idx = engine_.index();
    return IndexStats{idx.TermCount(), idx.PostingCount(),
                      idx.CompressedSizeBytes(), idx.RawCsrSizeBytes()};
  }

  /// Per-structure memory accounting (see MemoryStats).
  MemoryStats memory_stats() const {
    MemoryStats m;
    m.nodes = table().size();
    m.node_records_bytes = document().NodeRecordBytes();
    m.node_table_bytes = table().ColumnBytes();
    m.source_text_bytes = document().SourceBytes();
    m.postings_bytes = index().CompressedSizeBytes();
    m.category_index_bytes = category_index().ColumnBytes();
    return m;
  }

 private:
  search::SearchEngine engine_;
};

}  // namespace xsact::engine

#endif  // XSACT_ENGINE_SNAPSHOT_H_
