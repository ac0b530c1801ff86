// The staged pipeline: one request served by calling each layer's public
// entry point from the benchmark, in the order engine::CompareResults
// calls them, with a span around every call. Its JSON is the reference
// every router outcome and HTTP body must equal byte for byte, and its
// spans are the per-layer breakdown of the traced run.

#ifndef XSACT_PERFBENCH_STAGED_H_
#define XSACT_PERFBENCH_STAGED_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "engine/session.h"
#include "engine/snapshot.h"
#include "workloads.h"

namespace perfbench {

/// Spans (microseconds) and counts of one staged request. Allocation
/// counts are those of the calling thread inside each layer's calls.
struct StageSample {
  double search_us = 0;
  double extract_us = 0;
  double instance_build_us = 0;
  double select_us = 0;
  double table_build_us = 0;
  double render_us = 0;
  uint64_t search_allocs = 0;
  uint64_t feature_allocs = 0;
  uint64_t core_allocs = 0;
  uint64_t table_allocs = 0;
  uint64_t postings = 0;     ///< sum of Df over the query terms
  uint64_t results = 0;      ///< search results before lift/dedup/cap
  uint64_t nodes_swept = 0;  ///< nodes in the compared subtrees
  int64_t total_dod = 0;
  std::string json;          ///< table::RenderJson of the comparison

  double total_us() const {
    return search_us + extract_us + instance_build_us + select_us +
           table_build_us + render_us;
  }
};

/// Serves `q` layer by layer against `snapshot` (see file comment).
xsact::StatusOr<StageSample> RunStaged(
    const xsact::engine::CorpusSnapshot& snapshot,
    xsact::engine::QuerySession* session, const MixQuery& q);

}  // namespace perfbench

#endif  // XSACT_PERFBENCH_STAGED_H_
