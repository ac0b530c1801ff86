// QueryService: multi-threaded serving executor for XSACT comparisons.
//
// A fixed pool of worker threads serves Submit()/SubmitBatch() requests
// against one immutable CorpusSnapshot. Each worker owns a private
// QuerySession, so queries run with zero shared mutable state beyond the
// task queue itself; outcomes are byte-identical to single-threaded
// serving (gated by tests/concurrent_serve_test.cc and
// bench/bench_concurrent_serve.cc).
//
// On top sits a sharded LRU result cache keyed on (normalized query,
// options fingerprint):
//   * normalization canonicalizes whitespace/case/punctuation through
//     the query parser, so "  GPS " and "gps" share an entry;
//   * the fingerprint covers every CompareOptions field that can change
//     the outcome, so two requests share an entry only when their
//     results are provably identical;
//   * cached values are shared_ptr<const ComparisonOutcome> — immutable
//     after construction, safe to hand to any number of reader threads;
//   * each shard evicts least-recently-used entries under its own lock;
//     hit/miss/eviction counters are exposed via cache_stats().
// Error outcomes are never cached. Two identical queries in flight at
// once may both compute (the cache is populated on completion, not on
// admission); the second insert wins harmlessly.
//
// Live corpus updates (snapshot hot swap): the service publishes its
// snapshot as an atomically swappable {snapshot, epoch} pair.
//   * Submit pins the task to the snapshot current at submission time,
//     so a query NEVER observes two snapshots — in-flight and queued
//     work finishes on the snapshot it was admitted under while new
//     submissions see the fresh corpus immediately;
//   * cache keys carry the epoch, so an outcome computed against one
//     snapshot can never serve a query admitted under another
//     (epoch-based invalidation); the swap also eagerly clears the
//     shards so stale entries don't squat in the LRU;
//   * ReloadCorpus parses + indexes the new corpus on a background
//     thread and publishes it via SwapSnapshot on success — a failed
//     load leaves the serving snapshot untouched.
//
// Request-level admission control: the task queue can be bounded
// (max_queue) — a submission that would exceed the bound is shed with
// ResourceExhausted instead of growing the backlog — and every request
// may carry a deadline. A worker that dequeues a task at or past its
// deadline resolves it to DeadlineExceeded without evaluating it, so an
// overloaded service drains stale work at queue speed instead of compute
// speed. Both are counted in admission_stats(). engine::ServiceRouter
// (router.h) composes several QueryServices — one per named dataset —
// behind a single Submit(dataset, ...) front-end.
//
// Completion delivery: Submit has one code path. Its primary form takes
// a Completion — a callable that receives the request's
// StatusOr<OutcomePtr> exactly once — and every way a request can end
// (drain rejection, cache hit, shed, dequeue deadline, dequeue cancel,
// injected fault, evaluation error, success, Shutdown's drained queue)
// goes through engine::Resolve. The future-returning Submit/SubmitBatch
// are thin wrappers that complete a std::promise. Event-driven callers
// (the HTTP front-end) take the completion form and are woken by it
// instead of polling futures.

#ifndef XSACT_ENGINE_QUERY_SERVICE_H_
#define XSACT_ENGINE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "engine/session.h"
#include "engine/snapshot.h"

namespace xsact::engine {

/// Shared, immutable comparison outcome (the cache's unit of storage).
using OutcomePtr = std::shared_ptr<const ComparisonOutcome>;

/// Per-request completion deadline (steady clock). A task a worker
/// dequeues at or after its deadline is not evaluated: its future
/// resolves to Status::DeadlineExceeded instead. Cache hits resolve at
/// submission and therefore never miss a deadline.
using Deadline = std::chrono::steady_clock::time_point;

/// Sentinel deadline: the request may start arbitrarily late.
inline constexpr Deadline kNoDeadline = Deadline::max();

/// The callback form of a Submit result: a move-only callable taking a
/// StatusOr<OutcomePtr>, run exactly once, through Resolve() only.
///
/// The callable lives inline — a Completion never allocates — so it
/// must fit in kInlineBytes and be nothrow-move-constructible (capture
/// a pointer, an id or a std::promise, not a container). Both limits
/// are compile-time checks.
class Completion {
 public:
  static constexpr size_t kInlineBytes = 4 * sizeof(void*);

  Completion() = default;

  // Implicit by design, like std::function: callers pass lambdas.
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, Completion>>>
  Completion(Fn&& fn) {  // NOLINT(google-explicit-constructor)
    using Stored = std::decay_t<Fn>;
    static_assert(sizeof(Stored) <= kInlineBytes &&
                      alignof(Stored) <= alignof(std::max_align_t),
                  "Completion callables are stored inline: capture less");
    static_assert(std::is_nothrow_move_constructible_v<Stored>,
                  "Completion callables must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Stored(std::forward<Fn>(fn));
    ops_ = &kOps<Stored>;
  }

  Completion(Completion&& other) noexcept { TakeFrom(other); }
  Completion& operator=(Completion&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;
  ~Completion() { Reset(); }

 private:
  friend void Resolve(Completion& done, StatusOr<OutcomePtr> result);

  struct Ops {
    void (*invoke)(void* fn, StatusOr<OutcomePtr>* result);
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* fn);
  };

  template <typename Stored>
  static constexpr Ops kOps = {
      [](void* fn, StatusOr<OutcomePtr>* result) {
        (*static_cast<Stored*>(fn))(std::move(*result));
      },
      [](void* from, void* to) {
        ::new (to) Stored(std::move(*static_cast<Stored*>(from)));
        static_cast<Stored*>(from)->~Stored();
      },
      [](void* fn) { static_cast<Stored*>(fn)->~Stored(); },
  };

  void TakeFrom(Completion& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }
  void Reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Runs `done` with `result` and leaves it empty: the single point
/// through which every Submit resolves. Resolving an empty (already
/// resolved) Completion aborts — a request ends exactly once.
void Resolve(Completion& done, StatusOr<OutcomePtr> result);

/// A Completion that fulfils `promise`: the bridge behind the
/// future-returning Submit overloads. Allocation-free beyond the
/// promise's own shared state.
Completion PromiseCompletion(std::promise<StatusOr<OutcomePtr>> promise);

/// Tuning knobs for a QueryService.
struct QueryServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  int num_threads = 0;
  /// Result cache on/off (a capacity of 0 also disables it).
  bool enable_cache = true;
  /// Number of independent LRU shards (lock striping).
  size_t cache_shards = 8;
  /// Total cached outcomes across all shards. Distributed so per-shard
  /// capacities sum exactly to this value (low-index shards take the
  /// remainder; a shard may get capacity 0 when capacity < shards).
  size_t cache_capacity = 512;
  /// Admission bound: maximum tasks queued (admitted, not yet picked up
  /// by a worker). A Submit that would exceed it is shed — its future
  /// resolves to Status::ResourceExhausted. 0 = unbounded.
  size_t max_queue = 0;
  /// Test seam: when >= 0, used in place of
  /// std::thread::hardware_concurrency() to resolve num_threads == 0.
  /// Lets tests exercise the hardware_concurrency() == 0 case the
  /// standard permits ("value not computable").
  int hardware_concurrency_override = -1;
  /// ReloadCorpus retry policy: transient failures (kIoError only — a
  /// parse or validation error is deterministic and retrying cannot
  /// help) are retried up to this many total attempts, sleeping
  /// reload_backoff_ms before the first retry and doubling it each
  /// further retry. Clamped to >= 1.
  int reload_max_attempts = 3;
  int reload_backoff_ms = 10;
};

/// Reload/serving health of one QueryService, kept current by
/// ReloadCorpus. A service starts healthy; a reload that exhausts its
/// retries marks it unhealthy (it keeps serving the last good snapshot)
/// and the next successful reload restores it.
struct ServiceHealth {
  bool healthy = true;
  uint64_t reload_successes = 0;
  uint64_t reload_failures = 0;  ///< reloads failed after all retries
  uint64_t reload_attempts = 0;  ///< individual load attempts, incl. retries
  std::string last_error;        ///< most recent failure; empty when healthy
};

/// Monotonic cache counters (totals since construction) plus the current
/// entry count. A miss is counted when the task is ADMITTED, not at
/// lookup: submissions shed by a full queue never compute, so they
/// count toward AdmissionStats::shed only — hits + misses + shed covers
/// every cacheable submission exactly once.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

/// Admission-control counters (totals since construction) plus the
/// current queue depth.
struct AdmissionStats {
  /// Tasks enqueued to the worker pool (cache hits are not admitted).
  uint64_t admitted = 0;
  /// Submissions rejected because the queue was at max_queue.
  uint64_t shed = 0;
  /// Tasks dequeued at or past their deadline (never evaluated), plus
  /// tasks whose evaluation was cut short by an expired deadline (the
  /// cooperative in-flight check; see QuerySession::cancel).
  uint64_t deadline_exceeded = 0;
  /// Tasks resolved with kCancelled: queued work drained by Shutdown()
  /// and submissions rejected while draining.
  uint64_t cancelled = 0;
  /// Tasks currently queued, not yet picked up by a worker.
  uint64_t queue_depth = 0;
};

/// Multi-threaded query executor over one snapshot. See file comment.
/// Thread-safe: Submit/SubmitBatch/cache_stats may be called from any
/// thread. The destructor finishes all accepted work before returning,
/// so every Submit's completion has run by then.
class QueryService {
 public:
  explicit QueryService(SnapshotPtr snapshot,
                        QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one SearchAndCompare; `done` receives the outcome (or the
  /// error status) exactly once. Admission control: when the queue
  /// holds max_queue tasks the request is shed (ResourceExhausted); a
  /// task whose worker dequeues it at or past `deadline` resolves to
  /// DeadlineExceeded without being evaluated.
  ///
  /// `cancel` (optional) is a caller-owned per-request cancel signal —
  /// the HTTP front-end fires it when the client disconnects. A task
  /// whose source has fired by dequeue time resolves to kCancelled
  /// without being evaluated; one that fires mid-evaluation stops at the
  /// next cooperative check. The source must stay alive until `done`
  /// has run.
  ///
  /// Which thread runs `done`: the caller's, before Submit returns, for
  /// a cache hit, a drain rejection or a shed; a worker's for every
  /// dequeued task; Shutdown()'s caller for tasks it drains from the
  /// queue. `done` never runs under a service lock, but it does run on
  /// a worker or inside Submit/Shutdown, so it must not block: hand the
  /// result off (push it on a queue, wake a loop, fulfil a promise) and
  /// return.
  void Submit(std::string query, const CompareOptions& options,
              size_t max_results, Deadline deadline,
              const CancelSource* cancel, Completion done)
      XSACT_EXCLUDES(queue_mu_);

  /// Future form of Submit above (a thin wrapper over it): the future
  /// resolves to the outcome; cache hits resolve immediately.
  std::future<StatusOr<OutcomePtr>> Submit(std::string query,
                                           const CompareOptions& options = {},
                                           size_t max_results = 0,
                                           Deadline deadline = kNoDeadline,
                                           const CancelSource* cancel =
                                               nullptr)
      XSACT_EXCLUDES(queue_mu_);

  /// Enqueues a batch; futures are in input order.
  std::vector<std::future<StatusOr<OutcomePtr>>> SubmitBatch(
      const std::vector<std::string>& queries,
      const CompareOptions& options = {}, size_t max_results = 0,
      Deadline deadline = kNoDeadline);

  /// Aggregate cache counters across shards.
  CacheStats cache_stats() const;

  /// Admission counters (queue depth, shed, deadline-exceeded).
  AdmissionStats admission_stats() const XSACT_EXCLUDES(queue_mu_);

  /// Reload health (see ServiceHealth). Thread-safe.
  ServiceHealth health() const XSACT_EXCLUDES(health_mu_);

  /// Drains the service without destroying it: rejects new submissions
  /// (kCancelled — including ones that would have hit the result
  /// cache), resolves all queued tasks with kCancelled, abandons
  /// pending reloads, and signals in-flight evaluations to stop at
  /// their next cooperative cancellation check. Idempotent; the
  /// destructor still joins the workers. Every Submit's completion still
  /// runs exactly once.
  void Shutdown() XSACT_EXCLUDES(queue_mu_, drain_mu_);

  /// Per-shard cache capacities (empty when the cache is disabled).
  /// Invariant: the values sum exactly to options.cache_capacity.
  const std::vector<size_t>& cache_shard_capacities() const {
    return shard_capacities_;
  }

  /// Resolved worker count.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The snapshot new submissions are currently served from.
  SnapshotPtr snapshot() const { return Current()->snapshot; }

  /// Monotonic snapshot generation (bumped by every swap).
  uint64_t snapshot_epoch() const { return Current()->epoch; }

  /// Atomically publishes `fresh` as the serving snapshot. In-flight and
  /// already-queued queries finish on the snapshot they were admitted
  /// under; the result cache is epoch-invalidated. Thread-safe.
  void SwapSnapshot(SnapshotPtr fresh) XSACT_EXCLUDES(swap_mu_);

  /// Loads `path` (fused zero-copy parse + index build) on a background
  /// thread and SwapSnapshot()s the result. The future resolves after
  /// publication — ok, or the load error (serving state untouched).
  /// Concurrent reloads serialize; the SLCA algorithm is inherited from
  /// the current snapshot. After Shutdown() the reload is abandoned
  /// (kCancelled) without touching the serving snapshot or health.
  std::future<Status> ReloadCorpus(std::string path)
      XSACT_EXCLUDES(reload_mu_);

  /// Canonical form of a query for cache keying: the parsed conjuncts
  /// ("term" / "field:term") joined by single spaces — whitespace, case
  /// and punctuation variants of the same query collapse onto one key.
  static std::string NormalizeQuery(std::string_view query);

  /// Stable textual encoding of every outcome-relevant CompareOptions
  /// field (doubles rendered as exact hex floats).
  static std::string OptionsFingerprint(const CompareOptions& options);

 private:
  /// One published serving generation. Immutable after construction;
  /// replaced wholesale by SwapSnapshot so readers always see a
  /// coherent (snapshot, epoch) pair.
  struct ServingState {
    SnapshotPtr snapshot;
    uint64_t epoch = 0;
  };

  struct Task {
    std::string query;
    CompareOptions options;
    std::string cache_key;  // empty = uncacheable (cache disabled)
    /// The snapshot (and its epoch) this task was admitted under: the
    /// worker evaluates against exactly this corpus, swap or no swap.
    SnapshotPtr snapshot;
    uint64_t epoch = 0;
    /// Latest start time; checked when a worker dequeues the task.
    Deadline deadline = kNoDeadline;
    /// Caller-owned per-request cancellation (client disconnect); may be
    /// null. Checked at dequeue and polled during evaluation.
    const CancelSource* cancel = nullptr;
    Completion done;
  };

  /// One LRU shard: entries in recency order (front = most recent).
  struct CacheShard {
    Mutex mu;
    std::list<std::pair<std::string, OutcomePtr>> lru XSACT_GUARDED_BY(mu);
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, OutcomePtr>>::iterator>
        map XSACT_GUARDED_BY(mu);  // keys view the list nodes' strings
                                   // (stable addresses)
  };

  void WorkerLoop(QuerySession* session) XSACT_EXCLUDES(queue_mu_);
  /// Synchronous reload body (runs on the reload thread): load with
  /// retry/backoff per options_, swap on success, record health; bails
  /// out (kCancelled) as soon as the drain signal fires.
  Status ReloadNow(const std::string& path)
      XSACT_EXCLUDES(health_mu_, drain_mu_, swap_mu_);
  size_t ShardIndexFor(std::string_view key) const;
  OutcomePtr CacheLookup(std::string_view key);
  void CacheInsert(const std::string& key, uint64_t epoch,
                   OutcomePtr outcome);
  /// LRU tail eviction down to `capacity`, with counter upkeep. The
  /// caller holds the shard lock (compile-time enforced).
  void EvictToCapacity(CacheShard& shard, size_t capacity)
      XSACT_REQUIRES(shard.mu);
  void ClearCache();

  /// Atomic read of the published serving state.
  std::shared_ptr<const ServingState> Current() const {
    return std::atomic_load_explicit(&serving_, std::memory_order_acquire);
  }

  /// Published {snapshot, epoch}; swapped atomically by SwapSnapshot.
  /// NOT guarded: readers go through the lock-free atomic_load in
  /// Current(); only stores (serialized by swap_mu_) mutate it.
  std::shared_ptr<const ServingState> serving_;
  Mutex swap_mu_;  // serializes swappers (epoch monotonicity)

  Mutex reload_mu_;
  std::thread reload_thread_ XSACT_GUARDED_BY(reload_mu_);

  QueryServiceOptions options_;
  /// Per-shard LRU capacities; sum exactly to options_.cache_capacity.
  std::vector<size_t> shard_capacities_;

  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};

  mutable Mutex health_mu_;
  ServiceHealth health_ XSACT_GUARDED_BY(health_mu_);

  /// Sticky drain signal observed by in-flight evaluations (installed
  /// into each worker session's Cancellation alongside the deadline).
  /// Internally atomic; reads need no lock. Cancel() fires under
  /// drain_mu_ so the backoff sleeper cannot miss the flag between its
  /// predicate check and its wait.
  CancelSource drain_;
  /// Wakes sleepers that must observe the drain promptly — today the
  /// reload retry backoff, which would otherwise pin Shutdown() (or the
  /// destructor) for the full backoff interval.
  Mutex drain_mu_;
  CondVar drain_cv_;

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> queue_ XSACT_GUARDED_BY(queue_mu_);
  bool stopping_ XSACT_GUARDED_BY(queue_mu_) = false;
  /// Set by Shutdown(); rejects new submissions (checked BEFORE the
  /// cache so a drained service never answers from the cache either).
  bool draining_ XSACT_GUARDED_BY(queue_mu_) = false;

  /// One private session per worker (index-aligned with workers_).
  std::vector<std::unique_ptr<QuerySession>> worker_sessions_;
  std::vector<std::thread> workers_;
};

}  // namespace xsact::engine

#endif  // XSACT_ENGINE_QUERY_SERVICE_H_
