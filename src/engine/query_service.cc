#include "engine/query_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/faultpoint.h"
#include "common/macros.h"

namespace xsact::engine {

namespace {

const fault::FaultPointId kFaultServiceWorker =
    fault::RegisterFaultPoint("service.worker");
const fault::FaultPointId kFaultServiceReload =
    fault::RegisterFaultPoint("service.reload");

/// 64-bit FNV-1a over the key bytes; cheap, stable, and good enough for
/// shard striping (shard count is small).
uint64_t HashKey(std::string_view key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void Resolve(Completion& done, StatusOr<OutcomePtr> result) {
  XSACT_CHECK_MSG(done.ops_ != nullptr, "request resolved twice");
  done.ops_->invoke(done.storage_, &result);
  done.Reset();
}

Completion PromiseCompletion(std::promise<StatusOr<OutcomePtr>> promise) {
  return [promise = std::move(promise)](StatusOr<OutcomePtr> result) mutable {
    promise.set_value(std::move(result));
  };
}

std::string QueryService::NormalizeQuery(std::string_view query) {
  std::string out;
  for (const search::QueryTerm& qt : search::ParseQuery(query)) {
    if (!out.empty()) out.push_back(' ');
    if (!qt.field.empty()) {
      out.append(qt.field);
      out.push_back(':');
    }
    out.append(qt.term);
  }
  return out;
}

// Every CompareOptions field can change an outcome, so every field is in
// the fingerprint; a field left out would alias cache entries across
// different options. The structured bindings in OptionsFingerprint name
// each field of the three structs, so adding a field stops this file
// compiling until the fingerprint is revisited. The size checks pin the
// same layouts on LP64 targets (the string member's size varies by
// standard library).
static_assert(sizeof(void*) != 8 || sizeof(core::SelectorOptions) == 12,
              "SelectorOptions changed: revisit OptionsFingerprint");
static_assert(sizeof(void*) != 8 || sizeof(feature::ExtractorOptions) == 24,
              "ExtractorOptions changed: revisit OptionsFingerprint");
static_assert(sizeof(void*) != 8 ||
                  sizeof(CompareOptions) == 56 + sizeof(std::string),
              "CompareOptions changed: revisit OptionsFingerprint");

std::string QueryService::OptionsFingerprint(const CompareOptions& options) {
  const auto& [algorithm, selector, diff_threshold, extractor,
               lift_results_to, max_compared] = options;
  const auto& [size_bound, max_rounds, fill_to_bound] = selector;
  const auto& [fold_value_case, max_value_length, skip_empty_values] =
      extractor;
  // %a renders doubles as exact hex floats: two fingerprints are equal
  // iff every numeric field is bit-for-bit equal.
  char buf[160];
  std::snprintf(buf, sizeof(buf), "a%d|b%d|r%d|f%d|t%a|vc%d|vl%zu|ve%d|m%zu|",
                static_cast<int>(algorithm), size_bound, max_rounds,
                fill_to_bound ? 1 : 0, diff_threshold,
                fold_value_case ? 1 : 0, max_value_length,
                skip_empty_values ? 1 : 0, max_compared);
  std::string out(buf);
  out.append(lift_results_to);  // last field: free-form, no escaping
  return out;
}

QueryService::QueryService(SnapshotPtr snapshot, QueryServiceOptions options)
    : serving_(std::make_shared<const ServingState>(
          ServingState{std::move(snapshot), 0})),
      options_(options) {
  if (options_.cache_shards == 0) options_.cache_shards = 1;
  if (options_.cache_capacity == 0) options_.enable_cache = false;
  if (options_.enable_cache) {
    // Distribute the capacity so the shard capacities sum EXACTLY to
    // cache_capacity: base entries everywhere, the remainder spread over
    // the low-index shards. (The former max(1, capacity/shards) drifted:
    // capacity=1, shards=8 admitted 8 entries; 100/8 admitted 96.) A
    // shard left with capacity 0 simply never stores an entry.
    const size_t base = options_.cache_capacity / options_.cache_shards;
    const size_t remainder = options_.cache_capacity % options_.cache_shards;
    shard_capacities_.resize(options_.cache_shards, base);
    for (size_t s = 0; s < remainder; ++s) ++shard_capacities_[s];
    shards_.reserve(options_.cache_shards);
    for (size_t s = 0; s < options_.cache_shards; ++s) {
      shards_.push_back(std::make_unique<CacheShard>());
    }
  }

  int threads = options_.num_threads;
  if (threads <= 0) {
    // The override seam lets tests pin what hardware_concurrency()
    // reports — including 0, which the standard permits ("value not
    // computable").
    threads = options_.hardware_concurrency_override >= 0
                  ? options_.hardware_concurrency_override
                  : static_cast<int>(std::thread::hardware_concurrency());
  }
  // Clamp AFTER resolving the hardware count: a 0 from either source
  // must still yield a pool with one worker, or no task ever runs.
  threads = std::max(threads, 1);
  worker_sessions_.reserve(static_cast<size_t>(threads));
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    worker_sessions_.push_back(std::make_unique<QuerySession>());
    workers_.emplace_back(&QueryService::WorkerLoop, this,
                          worker_sessions_.back().get());
  }
}

QueryService::~QueryService() {
  {
    MutexLock lock(reload_mu_);
    if (reload_thread_.joinable()) reload_thread_.join();
  }
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void QueryService::SwapSnapshot(SnapshotPtr fresh) {
  MutexLock lock(swap_mu_);
  auto next = std::make_shared<const ServingState>(
      ServingState{std::move(fresh), Current()->epoch + 1});
  std::atomic_store_explicit(&serving_, std::move(next),
                             std::memory_order_release);
  // Stale-epoch keys can never be looked up again; clear eagerly so the
  // dead entries don't occupy LRU capacity until natural eviction.
  ClearCache();
}

std::future<Status> QueryService::ReloadCorpus(std::string path) {
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> future = promise->get_future();
  MutexLock lock(reload_mu_);
  if (reload_thread_.joinable()) reload_thread_.join();
  reload_thread_ = std::thread([this, path = std::move(path), promise] {
    promise->set_value(ReloadNow(path));
  });
  return future;
}

Status QueryService::ReloadNow(const std::string& path) {
  const search::SlcaAlgorithm algorithm =
      Current()->snapshot->corpus().algorithm;
  const int max_attempts = std::max(options_.reload_max_attempts, 1);
  int backoff_ms = std::max(options_.reload_backoff_ms, 1);
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // A draining service must not load a fresh snapshot: a reload racing
    // Shutdown() could otherwise publish a new serving generation (and
    // even flip the service back to healthy) after the caller was told
    // everything is cancelled. Abandon WITHOUT touching health — this is
    // not a reload failure, and last-known-good state stays meaningful.
    if (drain_.cancelled()) {
      return Status::Cancelled(
          "reload abandoned: service is shutting down");
    }
    {
      MutexLock lock(health_mu_);
      ++health_.reload_attempts;
    }
    // The fault site substitutes for the load so an injected kIoError
    // exercises the retry loop exactly like a real transient failure.
    Status injected = fault::CheckFaultPoint(kFaultServiceReload);
    StatusOr<SnapshotPtr> fresh =
        injected.ok() ? CorpusSnapshot::FromFile(path, algorithm)
                      : StatusOr<SnapshotPtr>(std::move(injected));
    if (fresh.ok()) {
      // Re-check the drain between the (slow) load and publication: the
      // swap below is the step that must never happen on a drained
      // service.
      if (drain_.cancelled()) {
        return Status::Cancelled(
            "reload abandoned: service drained during load");
      }
      // Publishing is the last step: a failure anywhere above leaves the
      // previous (last-known-good) snapshot serving untouched.
      SwapSnapshot(std::move(fresh).value());
      MutexLock lock(health_mu_);
      health_.healthy = true;
      ++health_.reload_successes;
      health_.last_error.clear();
      return Status::Ok();
    }
    // Carry the underlying parse/I-O message so callers see WHY the
    // reload failed, not just that it did.
    last = fresh.status().WithContext("reload attempt " +
                                      std::to_string(attempt) + "/" +
                                      std::to_string(max_attempts));
    if (fresh.status().code() != StatusCode::kIoError) break;
    if (attempt < max_attempts) {
      // Interruptible backoff: wait on the drain signal instead of a
      // plain sleep, so Shutdown() during a backed-off reload returns
      // promptly instead of blocking for the remaining interval. The
      // predicate loop is explicit (not a wait-lambda) so the analysis
      // sees every access inside the locked scope.
      bool drained_while_waiting;
      {
        MutexLock wait_lock(drain_mu_);
        const auto wait_deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(backoff_ms);
        while (!drain_.cancelled() &&
               drain_cv_.WaitUntil(drain_mu_, wait_deadline)) {
        }
        drained_while_waiting = drain_.cancelled();
      }
      if (drained_while_waiting) {
        last = Status::Cancelled(
            "reload abandoned: service draining during retry backoff (" +
            last.ToString() + ")");
        break;
      }
      backoff_ms *= 2;
    }
  }
  MutexLock lock(health_mu_);
  health_.healthy = false;
  ++health_.reload_failures;
  health_.last_error = last.ToString();
  return last;
}

ServiceHealth QueryService::health() const {
  MutexLock lock(health_mu_);
  return health_;
}

void QueryService::Shutdown() {
  std::deque<Task> drained;
  {
    MutexLock lock(queue_mu_);
    draining_ = true;
    drained.swap(queue_);
  }
  // Signal in-flight evaluations BEFORE resolving the drained tasks so a
  // caller observing a cancelled result knows no further work runs on
  // its behalf beyond the current cooperative check interval. The cv
  // wakes the reload thread out of a retry backoff (under drain_mu_ so
  // the sleeper cannot miss the flag between its predicate and wait).
  // queue_mu_ is NOT held here: the two locks are never nested, in
  // either order (a lock cycle between the drain and queue paths is how
  // Shutdown could deadlock against a worker).
  {
    MutexLock drain_lock(drain_mu_);
    drain_.Cancel();
  }
  drain_cv_.NotifyAll();
  for (Task& task : drained) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    Resolve(task.done, Status::Cancelled("service shutting down"));
  }
  queue_cv_.NotifyAll();
}

void QueryService::Submit(std::string query, const CompareOptions& options,
                          size_t max_results, Deadline deadline,
                          const CancelSource* cancel, Completion done) {
  // Fold max_results into the options so equivalent requests share a
  // cache entry regardless of which parameter carried the cap.
  CompareOptions effective = options;
  if (max_results > 0) effective.max_compared = max_results;

  // Drain check FIRST — before the cache lookup. Shutdown() promises
  // that every later submission resolves kCancelled; a cache hit
  // answered here would hand out real data after that promise (the
  // lock-discipline audit caught exactly this: tests/
  // lock_discipline_test.cc::CacheHitDoesNotBypassDrain). The check is
  // repeated under the same lock at admission below for requests that
  // race Shutdown() past this point.
  bool rejected;
  {
    MutexLock lock(queue_mu_);
    rejected = draining_;
  }
  if (rejected) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    Resolve(done,
            Status::Cancelled("service is shutting down; submission rejected"));
    return;
  }

  // Pin the task to the serving state current at submission: the worker
  // evaluates against exactly this snapshot, and the cache key carries
  // its epoch, so a hot swap can neither mix snapshots within a query
  // nor serve an outcome across generations.
  const std::shared_ptr<const ServingState> serving = Current();

  std::string cache_key;
  if (options_.enable_cache) {
    cache_key = std::to_string(serving->epoch);
    cache_key.push_back('\x1e');
    cache_key.append(NormalizeQuery(query));
    cache_key.push_back('\x1e');
    cache_key.append(OptionsFingerprint(effective));
    if (OutcomePtr cached = CacheLookup(cache_key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      Resolve(done, std::move(cached));
      return;
    }
    // The miss is counted at admission below: a submission shed by the
    // full queue never computes, so counting it here would make the
    // miss count overstate actual work under overload.
  }

  Task task;
  task.query = std::move(query);
  task.options = std::move(effective);
  task.cache_key = std::move(cache_key);
  task.snapshot = serving->snapshot;
  task.epoch = serving->epoch;
  task.deadline = deadline;
  task.cancel = cancel;
  task.done = std::move(done);
  // A refused task is answered after the lock is released: a completion
  // never runs under queue_mu_ (it may take its own locks or wake
  // another thread, and must not extend this critical section).
  Status rejection;
  queue_mu_.Lock();
  if (draining_) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    rejection =
        Status::Cancelled("service is shutting down; submission rejected");
  } else if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
    // Load shedding: reject instead of growing the backlog, so a burst
    // degrades into fast failures rather than unbounded latency.
    shed_.fetch_add(1, std::memory_order_relaxed);
    rejection = Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.max_queue) +
        " tasks queued)");
  }
  if (!rejection.ok()) {
    queue_mu_.Unlock();
    Resolve(task.done, std::move(rejection));
    return;
  }
  if (!task.cache_key.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_.push_back(std::move(task));
  admitted_.fetch_add(1, std::memory_order_relaxed);
  queue_mu_.Unlock();
  queue_cv_.NotifyOne();
}

std::future<StatusOr<OutcomePtr>> QueryService::Submit(
    std::string query, const CompareOptions& options, size_t max_results,
    Deadline deadline, const CancelSource* cancel) {
  std::promise<StatusOr<OutcomePtr>> promise;
  std::future<StatusOr<OutcomePtr>> future = promise.get_future();
  Submit(std::move(query), options, max_results, deadline, cancel,
         PromiseCompletion(std::move(promise)));
  return future;
}

std::vector<std::future<StatusOr<OutcomePtr>>> QueryService::SubmitBatch(
    const std::vector<std::string>& queries, const CompareOptions& options,
    size_t max_results, Deadline deadline) {
  std::vector<std::future<StatusOr<OutcomePtr>>> futures;
  futures.reserve(queries.size());
  for (const std::string& query : queries) {
    futures.push_back(Submit(query, options, max_results, deadline));
  }
  return futures;
}

CacheStats QueryService::cache_stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

AdmissionStats QueryService::admission_stats() const {
  AdmissionStats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  {
    MutexLock lock(queue_mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void QueryService::WorkerLoop(QuerySession* session) {
  for (;;) {
    Task task;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }

    // Deadline check at dequeue: a task starting at or past its deadline
    // is answered DEADLINE_EXCEEDED without evaluation, so a backlog
    // drains at queue speed, not compute speed.
    if (task.deadline != kNoDeadline &&
        std::chrono::steady_clock::now() >= task.deadline) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      Resolve(task.done,
              Status::DeadlineExceeded("task dequeued past its deadline"));
      continue;
    }

    // A request whose caller already cancelled (the HTTP front-end saw
    // the client disconnect) is dead weight: resolve it without burning
    // worker time on an answer nobody will read.
    if (task.cancel != nullptr && task.cancel->cancelled()) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      Resolve(task.done,
              Status::Cancelled("request cancelled before evaluation"));
      continue;
    }

    // Injected evaluation failure (chaos suite): resolve like any other
    // evaluation error — the task is always resolved.
    Status injected = fault::CheckFaultPoint(kFaultServiceWorker);
    if (!injected.ok()) {
      Resolve(task.done, std::move(injected));
      continue;
    }

    // The deadline also bounds EXECUTION, not just queue time: the
    // session's cancellation token (deadline + the service's drain
    // signal + the caller's per-request cancel) is polled inside the
    // kernels and the extractor, so a slow query stops within one check
    // interval of expiry.
    session->cancel = Cancellation(task.deadline, &drain_, task.cancel);
    StatusOr<ComparisonOutcome> outcome =
        SearchAndCompare(*task.snapshot, session, task.query, 0,
                         task.options);
    session->cancel = Cancellation();
    if (!outcome.ok()) {
      const StatusCode code = outcome.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      } else if (code == StatusCode::kCancelled) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
      Resolve(task.done, outcome.status());  // errors are not cached
      continue;
    }
    OutcomePtr shared =
        std::make_shared<const ComparisonOutcome>(std::move(outcome).value());
    if (!task.cache_key.empty()) {
      CacheInsert(task.cache_key, task.epoch, shared);
    }
    Resolve(task.done, std::move(shared));
  }
}

void QueryService::ClearCache() {
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    MutexLock lock(shard->mu);
    const size_t dropped = shard->lru.size();
    shard->map.clear();
    shard->lru.clear();
    entries_.fetch_sub(dropped, std::memory_order_relaxed);
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
  }
}

size_t QueryService::ShardIndexFor(std::string_view key) const {
  return HashKey(key) % shards_.size();
}

OutcomePtr QueryService::CacheLookup(std::string_view key) {
  CacheShard& shard = *shards_[ShardIndexFor(key)];
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  // Refresh recency: move the entry to the front of the LRU list (the
  // map's iterator stays valid across splice).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void QueryService::CacheInsert(const std::string& key, uint64_t epoch,
                               OutcomePtr outcome) {
  const size_t index = ShardIndexFor(key);
  const size_t capacity = shard_capacities_[index];
  if (capacity == 0) return;  // this shard stores nothing
  CacheShard& shard = *shards_[index];
  MutexLock lock(shard.mu);
  // A task finishing after a swap must not refill the shard with a
  // stale-epoch key (unreachable by lookups, yet squatting on LRU
  // capacity). SwapSnapshot publishes the new epoch BEFORE clearing the
  // shards, so under the shard lock: either this insert precedes the
  // clear (which then removes it), or the epoch check below sees the
  // new epoch and skips the insert. Either way no stale entry survives.
  if (Current()->epoch != epoch) return;
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A concurrent worker computed the same key; keep the newer value and
    // refresh recency.
    it->second->second = std::move(outcome);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(outcome));
  shard.map.emplace(std::string_view(shard.lru.front().first),
                    shard.lru.begin());
  entries_.fetch_add(1, std::memory_order_relaxed);
  EvictToCapacity(shard, capacity);
}

void QueryService::EvictToCapacity(CacheShard& shard, size_t capacity) {
  while (shard.lru.size() > capacity) {
    shard.map.erase(std::string_view(shard.lru.back().first));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace xsact::engine
