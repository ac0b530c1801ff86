// The benchmark's workloads: which corpora each one serves, how they are
// generated from the workload seed, and the query mix its clients send.
// Why each workload exists is in NOTES.md.

#ifndef XSACT_PERFBENCH_WORKLOADS_H_
#define XSACT_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/session.h"
#include "xml/document.h"

namespace perfbench {

/// One request of a query mix: where it goes and what it asks. `url` is
/// the HTTP target carrying exactly `query`, `options` and `max_results`.
struct MixQuery {
  std::string dataset;
  std::string query;
  std::string url;
  xsact::engine::CompareOptions options;
  size_t max_results = 0;
};

struct Workload {
  std::string name;
  /// Clients reach the engine over HTTP (else by direct router Submit).
  bool http = false;
  /// Closed-loop client threads.
  int clients = 1;
  /// Engine worker threads per dataset.
  int workers = 1;
  /// Set-ups timed per run; setup_s is their median.
  int setups = 3;
  /// Reloads of `reload_dataset` timed per run, with no traffic. The
  /// measured window is cut into `reload_rounds` slices, and the reloads
  /// are shared out over the pauses after each slice.
  int reloads = 5;
  int reload_rounds = 1;
  std::string reload_dataset;
  /// Dataset names in set-up order; the corpus file of each is
  /// <corpus dir>/<name>.xml.
  std::vector<std::string> datasets;
  /// Generates the corpora of `datasets`, in that order, from the seed.
  std::function<std::vector<xsact::xml::Document>(uint64_t seed)> generate;
  /// The mix in canonical order (see ShuffledMix).
  std::vector<MixQuery> mix;
};

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Writes the workload's corpora, generated from `seed`, to `dir`.
xsact::Status GenerateCorpora(const Workload& workload, uint64_t seed,
                              const std::string& dir);

/// The mix in a seed-determined order, the order of warm-up and traced
/// passes. Measured clients draw from it at random.
std::vector<MixQuery> ShuffledMix(const Workload& workload, uint64_t seed);

}  // namespace perfbench

#endif  // XSACT_PERFBENCH_WORKLOADS_H_
