// ServiceRouter: the multi-corpus front-end of the XSACT serving stack.
//
// One router owns N named QueryService instances — one per dataset, each
// with its own snapshot / epoch / hot-swap lifecycle and its own result
// cache and admission queue — and routes Submit(dataset, query, ...) to
// the service owning that corpus. This is the topology native-XML search
// services expose (many heterogeneous collections behind one query
// front-end): datasets scale independently, a hot corpus reload on one
// never touches another, and per-dataset counters stay attributable.
//
// Admission control (bounded queue + load shedding, per-request
// deadlines) lives in QueryService; the router composes it per dataset
// rather than reimplementing it, and aggregates the observability
// counters — cache hit/miss/eviction, queue depth, shed and
// deadline-exceeded totals, snapshot epoch — into RouterStats.
//
// Thread safety: the dataset map is immutable after Create(), so routing
// is lock-free; all mutability lives inside the individual services,
// which are themselves thread-safe (their locking discipline is
// annotated with common/thread_annotations.h and proven by the
// -Wthread-safety static-analysis gate — see docs/static_analysis.md).
// Any number of threads may call Submit / ReloadCorpus / stats
// concurrently. The router itself must therefore stay lock-free: if a
// future change adds shared mutable state here, it takes an
// XSACT_GUARDED_BY'd field and an xsact::Mutex, never a raw std::mutex
// (tools/lint/run_lint.py rejects the latter repo-wide).

#ifndef XSACT_ENGINE_ROUTER_H_
#define XSACT_ENGINE_ROUTER_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "engine/query_service.h"
#include "engine/snapshot.h"

namespace xsact::engine {

/// One dataset a router serves: a unique name and its initial snapshot.
struct DatasetSpec {
  std::string name;
  SnapshotPtr snapshot;
};

/// Everything observable about one dataset's service.
struct DatasetStats {
  std::string dataset;
  uint64_t epoch = 0;  ///< snapshot generation (bumped by each hot swap)
  CacheStats cache;
  AdmissionStats admission;
  ServiceHealth health;  ///< reload health (last-known-good retention)
  MemoryStats memory;    ///< the current snapshot's per-structure bytes
};

/// Per-dataset stats plus totals, as returned by ServiceRouter::stats().
struct RouterStats {
  /// One entry per dataset, sorted by dataset name.
  std::vector<DatasetStats> datasets;

  uint64_t total_shed() const;
  uint64_t total_deadline_exceeded() const;
  uint64_t total_queue_depth() const;

  /// Datasets whose most recent reload failed (still serving their
  /// last-known-good snapshot).
  uint64_t total_unhealthy() const;
};

/// Multi-corpus query front-end. See file comment. Movable, not
/// copyable; construct via Create().
class ServiceRouter {
 public:
  /// Builds one QueryService per spec (each configured with `options`).
  /// Fails with kAlreadyExists on a duplicate dataset name and
  /// kInvalidArgument on an empty name or null snapshot.
  static StatusOr<ServiceRouter> Create(std::vector<DatasetSpec> datasets,
                                        const QueryServiceOptions& options = {});

  /// Routes the query to `dataset`'s service. Unknown datasets resolve
  /// `done` immediately (on the caller's thread) to kNotFound; otherwise
  /// the semantics (caching, shedding, deadlines, snapshot pinning, the
  /// caller-owned `cancel` signal, which thread runs `done`) are exactly
  /// QueryService::Submit on that dataset's service — routed serving is
  /// byte-identical to direct per-service serving.
  void Submit(std::string_view dataset, std::string query,
              const CompareOptions& options, size_t max_results,
              Deadline deadline, const CancelSource* cancel, Completion done);

  /// Future form of Submit above (a thin wrapper over it).
  std::future<StatusOr<OutcomePtr>> Submit(std::string_view dataset,
                                           std::string query,
                                           const CompareOptions& options = {},
                                           size_t max_results = 0,
                                           Deadline deadline = kNoDeadline,
                                           const CancelSource* cancel =
                                               nullptr);

  /// Routes a hot corpus reload to `dataset`'s service
  /// (QueryService::ReloadCorpus); other datasets are untouched.
  std::future<Status> ReloadCorpus(std::string_view dataset,
                                   std::string path);

  /// The service owning `dataset`, or nullptr when unknown. Exposes the
  /// full per-service surface (SwapSnapshot, snapshot(), ...).
  QueryService* service(std::string_view dataset);
  const QueryService* service(std::string_view dataset) const;

  /// Dataset names, sorted.
  std::vector<std::string> dataset_names() const;

  size_t num_datasets() const { return services_.size(); }

  /// Aggregated per-dataset counters (sorted by dataset name).
  RouterStats stats() const;

 private:
  using ServiceMap =
      std::map<std::string, std::unique_ptr<QueryService>, std::less<>>;

  explicit ServiceRouter(ServiceMap services)
      : services_(std::move(services)) {}

  /// Immutable after construction (the map, not the services).
  ServiceMap services_;
};

}  // namespace xsact::engine

#endif  // XSACT_ENGINE_ROUTER_H_
