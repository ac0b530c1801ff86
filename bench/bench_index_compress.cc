// bench_index_compress — the block-compressed postings format and the
// skip-driven SLCA/ELCA merge kernels vs the raw-CSR + scan baseline,
// at million-node corpus scale.
//
// Gates (exit non-zero on failure):
//   * compression — the index's compressed byte footprint (payload +
//     skips + CSR offsets) must be >= 3x smaller than the raw CSR
//     layout it replaced (one NodeId per posting + one size_t offset
//     per term), on every corpus;
//   * identity    — on every bench query, the full search pipeline
//     (SlcaAlgorithm::kScan engine vs the merge-dispatching kSlca
//     engine) must produce byte-identical result lists, and at kernel
//     level ComputeSlcaMerge / ComputeElcaMerge must equal their scan
//     references exactly;
//   * speed       — over the selective query set, SLCA evaluation via
//     the merge kernel must be >= 5x faster than the decode + scan
//     baseline at both p50 and p99, on every corpus.
//
// Emits machine-readable BENCH_index_compress.json.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "common/timer.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "search/search_engine.h"
#include "search/slca.h"

namespace {

using namespace xsact;

/// One corpus row. The corpus is generated only when its row runs and is
/// freed with the row's engines, so at most one million-node DOM (plus
/// the scan engine's clone) is alive at a time.
struct Workload {
  std::string corpus;
  std::function<xml::Document()> generate;
  std::vector<std::string> queries;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  // ~1.5M nodes: 2000 products x 8..72 reviews.
  workloads.push_back(Workload{"product_reviews",
                               [] {
                                 data::ProductReviewsConfig config;
                                 config.num_products = 2000;
                                 return data::GenerateProductReviews(config);
                               },
                               {"tomtom gps", "magellan compact",
                                "navigon marine", "garmin accurate"}});
  // ~1.3M nodes: 8 brands x 3600..12000 products.
  workloads.push_back(Workload{"outdoor_retailer",
                               [] {
                                 data::OutdoorRetailerConfig config;
                                 config.min_products = 18 * 200;
                                 config.max_products = 60 * 200;
                                 return data::GenerateOutdoorRetailer(config);
                               },
                               {"marmot packable", "patagonia down",
                                "salomon windbreakers", "mammut stretch"}});
  // ~3.9M nodes: the default franchise mix scaled 60x.
  workloads.push_back(Workload{"movies",
                               [] {
                                 data::MoviesConfig config;
                                 for (int& size : config.franchise_sizes) {
                                   size *= 60;
                                 }
                                 return data::GenerateMovies(config);
                               },
                               {"phantom kimura", "ember eclipse",
                                "crystal requiem", "thunder moreau"}});
  return workloads;
}

/// Serializes a result list so "byte-identical pipeline output" is a
/// string comparison.
std::string Fingerprint(const std::vector<search::SearchResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += std::to_string(r.root_id);
    out.push_back(':');
    out += r.title;
    out.push_back(';');
  }
  return out;
}

struct Row {
  std::string corpus;
  size_t nodes = 0;
  size_t terms = 0;
  size_t postings = 0;
  size_t compressed_bytes = 0;
  size_t raw_bytes = 0;
  double ratio = 0;
  double scan_p50_ms = 0;
  double scan_p99_ms = 0;
  double merge_p50_ms = 0;
  double merge_p99_ms = 0;
  bool identity_ok = true;

  double SpeedupP50() const {
    return merge_p50_ms > 0 ? scan_p50_ms / merge_p50_ms : 0;
  }
  double SpeedupP99() const {
    return merge_p99_ms > 0 ? scan_p99_ms / merge_p99_ms : 0;
  }
};

}  // namespace

int main() {
  bench::Header("index_compress",
                "block-compressed postings + skip-driven SLCA/ELCA merge vs "
                "raw CSR + scan kernels");

  const int repeats = 15;
  bool gate_ok = true;
  std::vector<Row> rows;

  for (const Workload& w : Workloads()) {
    Row row;
    row.corpus = w.corpus;

    // Two engines over the same document: the pure-scan reference
    // configuration and the merge-dispatching production configuration.
    // Both die at the end of the row, taking the corpus with them.
    xml::Document doc = w.generate();
    search::SearchEngine scan_engine(doc.Clone(),
                                     search::SlcaAlgorithm::kScan);
    search::SearchEngine engine(std::move(doc), search::SlcaAlgorithm::kSlca);
    const xml::NodeTable& table = engine.table();
    const search::InvertedIndex& index = engine.index();
    row.nodes = table.size();
    row.terms = index.TermCount();
    row.postings = index.PostingCount();
    row.compressed_bytes = index.CompressedSizeBytes();
    row.raw_bytes = index.RawCsrSizeBytes();
    row.ratio = bench::ReportIndexBytes(w.corpus, row.compressed_bytes,
                                        row.raw_bytes);

    search::SearchWorkspace scan_ws, merge_ws;
    search::MergeScratch scratch;
    SampleStats scan_times, merge_times;

    for (const std::string& query : w.queries) {
      // ----- pipeline identity: kScan engine vs kSlca engine -----
      auto scan_results = scan_engine.Search(query, &scan_ws);
      auto merge_results = engine.Search(query, &merge_ws);
      if (!scan_results.ok() || !merge_results.ok()) {
        std::fprintf(stderr, "FAIL %s: query '%s' errored\n",
                     w.corpus.c_str(), query.c_str());
        row.identity_ok = false;
        continue;
      }
      if (Fingerprint(*scan_results) != Fingerprint(*merge_results)) {
        std::fprintf(stderr,
                     "FAIL %s: pipeline output diverged on '%s' "
                     "(%zu scan vs %zu merge results)\n",
                     w.corpus.c_str(), query.c_str(), scan_results->size(),
                     merge_results->size());
        row.identity_ok = false;
      }
      if (scan_results->empty()) {
        std::fprintf(stderr, "FAIL %s: query '%s' returned no results "
                     "(bench queries must be non-trivial)\n",
                     w.corpus.c_str(), query.c_str());
        row.identity_ok = false;
      }

      // ----- kernel identity + timing on the same term lists -----
      std::vector<std::vector<xml::NodeId>> storage;
      search::MatchLists scan_lists;
      search::MergeLists merge_lists;
      size_t total_postings = 0;
      for (const search::QueryTerm& qt : search::ParseQuery(query)) {
        storage.emplace_back();
        scan_lists.push_back(index.Decode(qt.term, &storage.back()));
        merge_lists.push_back(
            search::PostingSource(index.Postings(qt.term)));
        total_postings += storage.back().size();
      }
      if (total_postings >= table.size() / 4) {
        std::fprintf(stderr,
                     "FAIL %s: query '%s' is not selective (%zu postings, "
                     "%zu nodes) — the merge dispatch would fall back\n",
                     w.corpus.c_str(), query.c_str(), total_postings,
                     table.size());
        row.identity_ok = false;
      }

      const auto slca_scan = search::ComputeSlcaByScan(table, scan_lists);
      const auto slca_merge =
          search::ComputeSlcaMerge(table, merge_lists, &scratch);
      if (slca_scan != slca_merge) {
        std::fprintf(stderr, "FAIL %s: SLCA merge != scan on '%s'\n",
                     w.corpus.c_str(), query.c_str());
        row.identity_ok = false;
      }
      const auto elca_scan = search::ComputeElcaByScan(table, scan_lists);
      const auto elca_merge =
          search::ComputeElcaMerge(table, merge_lists, &scratch);
      if (elca_scan != elca_merge) {
        std::fprintf(stderr, "FAIL %s: ELCA merge != scan on '%s'\n",
                     w.corpus.c_str(), query.c_str());
        row.identity_ok = false;
      }

      // Scan baseline: decode the postings (as the scan path must) and
      // run the linear kernel. Merge path: straight off the compressed
      // lists with reused scratch — the engine's steady-state hot path.
      const std::vector<search::QueryTerm> terms = search::ParseQuery(query);
      std::vector<xml::NodeId> decode_buf;
      for (int r = 0; r < repeats; ++r) {
        Timer timer;
        // One resize up front so the list views into the buffer stay
        // valid (mirrors the engine's decode pool).
        size_t total = 0;
        for (const search::QueryTerm& qt : terms) {
          total += index.Postings(qt.term).size();
        }
        decode_buf.resize(total);
        search::MatchLists lists;
        size_t begin = 0;
        for (const search::QueryTerm& qt : terms) {
          search::CompressedPostings cp = index.Postings(qt.term);
          cp.DecodeInto(decode_buf.data() + begin);
          lists.push_back(
              search::PostingList(decode_buf.data() + begin, cp.size()));
          begin += cp.size();
        }
        auto result = search::ComputeSlcaByScan(table, lists);
        scan_times.Add(timer.ElapsedSeconds());
        if (result != slca_scan) std::exit(1);
      }
      for (int r = 0; r < repeats; ++r) {
        Timer timer;
        auto result = search::ComputeSlcaMerge(table, merge_lists, &scratch);
        merge_times.Add(timer.ElapsedSeconds());
        if (result != slca_scan) std::exit(1);
      }
    }

    row.scan_p50_ms = scan_times.Percentile(50.0) * 1e3;
    row.scan_p99_ms = scan_times.Percentile(99.0) * 1e3;
    row.merge_p50_ms = merge_times.Percentile(50.0) * 1e3;
    row.merge_p99_ms = merge_times.Percentile(99.0) * 1e3;

    std::printf("%-17s %8zu nodes | scan p50/p99 %8.3f/%8.3f ms | "
                "merge p50/p99 %8.4f/%8.4f ms | %6.1fx/%.1fx\n",
                row.corpus.c_str(), row.nodes, row.scan_p50_ms,
                row.scan_p99_ms, row.merge_p50_ms, row.merge_p99_ms,
                row.SpeedupP50(), row.SpeedupP99());

    if (row.ratio < 3.0) {
      std::fprintf(stderr, "FAIL %s: compression ratio %.2fx < 3x\n",
                   row.corpus.c_str(), row.ratio);
      gate_ok = false;
    }
    if (row.SpeedupP50() < 5.0 || row.SpeedupP99() < 5.0) {
      std::fprintf(stderr,
                   "FAIL %s: merge speedup p50 %.1fx / p99 %.1fx < 5x\n",
                   row.corpus.c_str(), row.SpeedupP50(), row.SpeedupP99());
      gate_ok = false;
    }
    if (!row.identity_ok) gate_ok = false;
    rows.push_back(std::move(row));
  }
  bench::Rule();

  FILE* json = std::fopen("BENCH_index_compress.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"index_compress\",\n  \"rows\": [\n");
    for (size_t r = 0; r < rows.size(); ++r) {
      const Row& row = rows[r];
      std::fprintf(
          json,
          "    {\"corpus\": \"%s\", \"nodes\": %zu, \"terms\": %zu, "
          "\"postings\": %zu, \"compressed_bytes\": %zu, \"raw_bytes\": %zu, "
          "\"ratio\": %.2f, \"scan_p50_ms\": %.4f, \"scan_p99_ms\": %.4f, "
          "\"merge_p50_ms\": %.4f, \"merge_p99_ms\": %.4f, "
          "\"speedup_p50\": %.1f, \"speedup_p99\": %.1f, "
          "\"identity_ok\": %s}%s\n",
          row.corpus.c_str(), row.nodes, row.terms, row.postings,
          row.compressed_bytes, row.raw_bytes, row.ratio, row.scan_p50_ms,
          row.scan_p99_ms, row.merge_p50_ms, row.merge_p99_ms,
          row.SpeedupP50(), row.SpeedupP99(),
          row.identity_ok ? "true" : "false",
          r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"peak_rss_bytes\": %zu,\n  \"gate_ok\": %s\n}\n",
                 bench::PeakRssBytes(), gate_ok ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_index_compress.json\n");
  }

  if (!gate_ok) return 1;
  std::printf(
      "gate OK: >= 3x compression, byte-identical scan-vs-merge pipeline "
      "output, >= 5x SLCA p50/p99 speedup on selective queries, on every "
      "corpus\n");
  return 0;
}
