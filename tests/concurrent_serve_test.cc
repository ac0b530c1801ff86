// Concurrency equivalence suite for the two-tier serving core.
//
// The contract under test: any number of threads serving queries against
// one shared immutable CorpusSnapshot — through raw QuerySessions or the
// QueryService pool — produce outcomes BYTE-IDENTICAL to single-threaded
// serving (tables, explanations, DFSs, DoD), and session/workspace reuse
// across sequential queries never changes output either. Plus unit tests
// for the sharded LRU result cache (hit/miss counters, LRU eviction,
// options-fingerprint discrimination, query normalization) and the
// session pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/movies.h"
#include "data/product_reviews.h"
#include "engine/query_service.h"
#include "engine/session.h"
#include "engine/snapshot.h"
#include "engine/xsact.h"
#include "table/explainer.h"
#include "table/renderer.h"

namespace xsact {
namespace {

using engine::CacheStats;
using engine::CompareOptions;
using engine::ComparisonOutcome;
using engine::CorpusSnapshot;
using engine::OutcomePtr;
using engine::QueryService;
using engine::QueryServiceOptions;
using engine::QuerySession;
using engine::SessionPool;
using engine::SnapshotPtr;

/// One workload item: a query plus the options it runs under.
struct WorkItem {
  std::string query;
  CompareOptions options;
};

/// Renders everything an outcome carries that a user could observe.
std::string RenderOutcome(const ComparisonOutcome& outcome) {
  std::string out = table::RenderAscii(outcome.table);
  out += "total_dod=" + std::to_string(outcome.total_dod) + "\n";
  for (const table::Explanation& e :
       table::ExplainDifferences(outcome.instance, outcome.dfss, 5)) {
    out += e.text + "\n";
  }
  for (const core::Dfs& dfs : outcome.dfss) {
    out += dfs.ToString(outcome.instance) + "\n";
  }
  return out;
}

/// The movie evaluation workload (8 queries of varying result-set size)
/// against the default movie corpus.
std::vector<WorkItem> MovieWorkload() {
  std::vector<WorkItem> items;
  for (const data::QuerySpec& spec : data::MovieQueryWorkload()) {
    WorkItem item;
    item.query = spec.query;
    item.options.selector.size_bound = spec.size_bound;
    items.push_back(std::move(item));
  }
  return items;
}

class ConcurrentServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snapshot_ = new SnapshotPtr(
        CorpusSnapshot::Build(data::GenerateMovies({})));
    workload_ = new std::vector<WorkItem>(MovieWorkload());
    // Single-threaded reference: one fresh session per query.
    reference_ = new std::vector<std::string>();
    for (const WorkItem& item : *workload_) {
      QuerySession session;
      auto outcome = engine::SearchAndCompare(**snapshot_, &session,
                                              item.query, 0, item.options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      reference_->push_back(RenderOutcome(*outcome));
    }
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete workload_;
    workload_ = nullptr;
    delete snapshot_;
    snapshot_ = nullptr;
  }

  static SnapshotPtr* snapshot_;
  static std::vector<WorkItem>* workload_;
  static std::vector<std::string>* reference_;
};

SnapshotPtr* ConcurrentServeTest::snapshot_ = nullptr;
std::vector<WorkItem>* ConcurrentServeTest::workload_ = nullptr;
std::vector<std::string>* ConcurrentServeTest::reference_ = nullptr;

// N raw threads x M queries against one shared snapshot, each thread
// reusing one private session: every outcome must match the
// single-threaded reference byte for byte.
TEST_F(ConcurrentServeTest, RawThreadsAreByteIdenticalToSingleThread) {
  constexpr int kThreads = 8;
  const std::vector<WorkItem>& workload = *workload_;
  std::vector<std::vector<std::string>> rendered(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &workload, &rendered] {
      QuerySession session;  // private per thread, reused across queries
      std::vector<std::string>& out = rendered[static_cast<size_t>(t)];
      out.resize(workload.size());
      // Each thread walks the workload at a different offset so distinct
      // queries overlap in time across threads.
      for (size_t k = 0; k < workload.size(); ++k) {
        const size_t q = (k + static_cast<size_t>(t)) % workload.size();
        const WorkItem& item = workload[q];
        auto outcome = engine::SearchAndCompare(
            **snapshot_, &session, item.query, 0, item.options);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        out[q] = RenderOutcome(*outcome);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t q = 0; q < workload.size(); ++q) {
      EXPECT_EQ(rendered[static_cast<size_t>(t)][q], (*reference_)[q])
          << "thread " << t << ", query \"" << workload[q].query << "\"";
    }
  }
}

// Workspace reuse must never leak state between queries: a session that
// has already served the whole workload still reproduces the
// fresh-session reference exactly.
TEST_F(ConcurrentServeTest, SessionReuseMatchesFreshSession) {
  QuerySession warmed;
  for (const WorkItem& item : *workload_) {
    auto outcome = engine::SearchAndCompare(**snapshot_, &warmed, item.query,
                                            0, item.options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  for (size_t q = 0; q < workload_->size(); ++q) {
    const WorkItem& item = (*workload_)[q];
    auto outcome = engine::SearchAndCompare(**snapshot_, &warmed, item.query,
                                            0, item.options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(RenderOutcome(*outcome), (*reference_)[q])
        << "query \"" << item.query << "\"";
  }
}

// The Xsact facade serves through the same snapshot+pool machinery; its
// concurrent calls must match the reference too.
TEST_F(ConcurrentServeTest, XsactFacadeIsThreadSafe) {
  const engine::Xsact xsact(*snapshot_);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> rendered(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &xsact, &rendered] {
      for (const WorkItem& item : *workload_) {
        auto outcome = xsact.SearchAndCompare(item.query, 0, item.options);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
        rendered[static_cast<size_t>(t)].push_back(RenderOutcome(*outcome));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(rendered[static_cast<size_t>(t)].size(), reference_->size());
    for (size_t q = 0; q < reference_->size(); ++q) {
      EXPECT_EQ(rendered[static_cast<size_t>(t)][q], (*reference_)[q]);
    }
  }
}

// QueryService end to end: a multi-threaded batch (every query three
// times, interleaved) returns reference-identical outcomes.
TEST_F(ConcurrentServeTest, QueryServiceBatchIsByteIdentical) {
  QueryServiceOptions options;
  options.num_threads = 4;
  options.enable_cache = false;
  QueryService service(*snapshot_, options);
  ASSERT_EQ(service.num_threads(), 4);

  constexpr int kRepeats = 3;
  std::vector<std::future<StatusOr<OutcomePtr>>> futures;
  for (int r = 0; r < kRepeats; ++r) {
    for (const WorkItem& item : *workload_) {
      futures.push_back(service.Submit(item.query, item.options));
    }
  }
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t q = 0; q < workload_->size(); ++q) {
      auto outcome = futures[static_cast<size_t>(r) * workload_->size() + q]
                         .get();
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(RenderOutcome(**outcome), (*reference_)[q]);
    }
  }
}

// Submitting an error query resolves the future with the error status.
TEST_F(ConcurrentServeTest, QueryServicePropagatesErrors) {
  QueryService service(*snapshot_, {});
  auto outcome = service.Submit("   ").get();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(service.cache_stats().entries, 0u) << "errors must not be cached";
}

TEST(QueryNormalizationTest, CollapsesWhitespaceCaseAndPunctuation) {
  EXPECT_EQ(QueryService::NormalizeQuery("  GPS   tomtom "), "gps tomtom");
  EXPECT_EQ(QueryService::NormalizeQuery("gps, TomTom!"), "gps tomtom");
  EXPECT_EQ(QueryService::NormalizeQuery("director:Moreau"),
            "director:moreau");
  EXPECT_EQ(QueryService::NormalizeQuery(""), "");
}

TEST(OptionsFingerprintTest, DiscriminatesOutcomeRelevantFields) {
  const CompareOptions base;
  CompareOptions bound = base;
  bound.selector.size_bound = 3;
  CompareOptions threshold = base;
  threshold.diff_threshold = 0.25;
  CompareOptions lift = base;
  lift.lift_results_to = "brand";
  CompareOptions capped = base;
  capped.max_compared = 4;
  const std::string fp = QueryService::OptionsFingerprint(base);
  EXPECT_NE(fp, QueryService::OptionsFingerprint(bound));
  EXPECT_NE(fp, QueryService::OptionsFingerprint(threshold));
  EXPECT_NE(fp, QueryService::OptionsFingerprint(lift));
  EXPECT_NE(fp, QueryService::OptionsFingerprint(capped));
  EXPECT_EQ(fp, QueryService::OptionsFingerprint(CompareOptions{}));
}

// One perturbation per CompareOptions field (nested ones included): each
// must move the cache key, and no two may collide.
TEST(OptionsFingerprintTest, EveryFieldChangesTheKey) {
  const CompareOptions base;
  std::vector<std::pair<std::string, CompareOptions>> perturbed;
  auto add = [&](const std::string& name, auto&& mutate) {
    CompareOptions options = base;
    mutate(options);
    perturbed.emplace_back(name, options);
  };
  add("algorithm", [](CompareOptions& o) {
    o.algorithm = core::SelectorKind::kGreedy;
  });
  add("selector.size_bound",
      [](CompareOptions& o) { o.selector.size_bound += 1; });
  add("selector.max_rounds",
      [](CompareOptions& o) { o.selector.max_rounds += 1; });
  add("selector.fill_to_bound", [](CompareOptions& o) {
    o.selector.fill_to_bound = !o.selector.fill_to_bound;
  });
  add("diff_threshold", [](CompareOptions& o) { o.diff_threshold += 0.01; });
  add("extractor.fold_value_case", [](CompareOptions& o) {
    o.extractor.fold_value_case = !o.extractor.fold_value_case;
  });
  add("extractor.max_value_length",
      [](CompareOptions& o) { o.extractor.max_value_length += 1; });
  add("extractor.skip_empty_values", [](CompareOptions& o) {
    o.extractor.skip_empty_values = !o.extractor.skip_empty_values;
  });
  add("lift_results_to",
      [](CompareOptions& o) { o.lift_results_to = "brand"; });
  add("max_compared", [](CompareOptions& o) { o.max_compared += 3; });
  ASSERT_EQ(perturbed.size(), 10u);  // one per field

  const std::string fp = QueryService::OptionsFingerprint(base);
  std::set<std::string> keys = {fp};
  for (const auto& [name, options] : perturbed) {
    const std::string key = QueryService::OptionsFingerprint(options);
    EXPECT_NE(key, fp) << name << " does not reach the fingerprint";
    EXPECT_TRUE(keys.insert(key).second) << name << " collides";
  }
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_ = CorpusSnapshot::Build(data::GenerateMovies({}));
  }
  SnapshotPtr snapshot_;
};

// A repeated query is answered from the cache: one miss, then hits that
// return the SAME shared outcome object.
TEST_F(CacheTest, RepeatedQueryHits) {
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(snapshot_, options);

  auto first = service.Submit("star").get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = service.Submit("star").get();
  ASSERT_TRUE(second.ok()) << second.status();

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(first->get(), second->get()) << "hit must share the outcome";
}

// Whitespace/case variants of one query share a cache entry.
TEST_F(CacheTest, NormalizedVariantsShareAnEntry) {
  QueryService service(snapshot_, {});
  auto first = service.Submit("star").get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto variant = service.Submit("  STAR ").get();
  ASSERT_TRUE(variant.ok()) << variant.status();
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(first->get(), variant->get());
}

// Different options under the same query must NOT share an entry.
TEST_F(CacheTest, DifferentOptionsMiss) {
  QueryService service(snapshot_, {});
  CompareOptions narrow;
  narrow.selector.size_bound = 2;
  auto base = service.Submit("star").get();
  ASSERT_TRUE(base.ok()) << base.status();
  auto narrowed = service.Submit("star", narrow).get();
  ASSERT_TRUE(narrowed.ok()) << narrowed.status();
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_NE(base->get(), narrowed->get());
}

// LRU eviction: with capacity 2 (one shard), a third distinct query
// evicts the least recently used entry, which then misses again.
TEST_F(CacheTest, LruEvictsLeastRecentlyUsed) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_shards = 1;
  options.cache_capacity = 2;
  QueryService service(snapshot_, options);

  ASSERT_TRUE(service.Submit("star").get().ok());     // miss -> {star}
  ASSERT_TRUE(service.Submit("galaxy").get().ok());  // miss -> {star,galaxy}
  // Touch "star" so "galaxy" becomes the LRU entry.
  ASSERT_TRUE(service.Submit("star").get().ok());  // hit
  ASSERT_TRUE(service.Submit("dragon").get().ok());  // evicts galaxy
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  ASSERT_TRUE(service.Submit("star").get().ok());  // still cached
  EXPECT_EQ(service.cache_stats().hits, 2u);
  ASSERT_TRUE(service.Submit("galaxy").get().ok());  // evicted: miss
  EXPECT_EQ(service.cache_stats().misses, 4u);
}

// Shard capacities must sum EXACTLY to cache_capacity — the former
// max(1, capacity/shards) rounding drifted in both directions
// (capacity=1, shards=8 admitted 8 entries; 100/8 admitted 96).
TEST_F(CacheTest, ShardCapacitiesSumExactlyToConfiguredCapacity) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_shards = 8;
  options.cache_capacity = 100;
  QueryService service(snapshot_, options);
  const std::vector<size_t>& capacities = service.cache_shard_capacities();
  ASSERT_EQ(capacities.size(), 8u);
  size_t total = 0;
  size_t lo = capacities[0];
  size_t hi = capacities[0];
  for (const size_t capacity : capacities) {
    total += capacity;
    lo = std::min(lo, capacity);
    hi = std::max(hi, capacity);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_LE(hi - lo, 1u) << "remainder must spread evenly";
}

// capacity < shards: the total stays the configured capacity (shards
// beyond the remainder get 0 and never store), so a capacity-1 cache
// holds at most ONE entry no matter how many shards stripe it.
TEST_F(CacheTest, TinyCapacityNeverExceedsConfiguredTotal) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_shards = 8;
  options.cache_capacity = 1;
  QueryService service(snapshot_, options);

  size_t total = 0;
  for (const size_t capacity : service.cache_shard_capacities()) {
    total += capacity;
  }
  EXPECT_EQ(total, 1u);

  for (const char* query : {"star", "galaxy", "dragon"}) {
    ASSERT_TRUE(service.Submit(query).get().ok());
    EXPECT_LE(service.cache_stats().entries, 1u);
  }
}

// A zero-capacity cache is just disabled: no entries, no counter churn.
TEST_F(CacheTest, ZeroCapacityDisablesCache) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  QueryService service(snapshot_, options);
  EXPECT_TRUE(service.cache_shard_capacities().empty());
  ASSERT_TRUE(service.Submit("star").get().ok());
  ASSERT_TRUE(service.Submit("star").get().ok());
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// std::thread::hardware_concurrency() may legitimately return 0 ("not
// computable"); the pool must still come up with one worker, or every
// Submit would queue forever. The options seam pins the reported value.
TEST_F(CacheTest, ZeroHardwareConcurrencyClampsToOneWorker) {
  QueryServiceOptions options;
  options.num_threads = 0;  // resolve from "hardware"
  options.hardware_concurrency_override = 0;
  QueryService service(snapshot_, options);
  EXPECT_EQ(service.num_threads(), 1);
  auto outcome = service.Submit("star").get();
  EXPECT_TRUE(outcome.ok()) << outcome.status();
}

// The pool recycles released sessions instead of constructing new ones.
TEST(SessionPoolTest, RecyclesSessions) {
  SessionPool pool;
  EXPECT_EQ(pool.IdleCount(), 0u);
  QuerySession* first = nullptr;
  {
    SessionPool::Lease lease = pool.Acquire();
    first = lease.get();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(pool.IdleCount(), 0u);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
  {
    SessionPool::Lease lease = pool.Acquire();
    EXPECT_EQ(lease.get(), first) << "released session must be reused";
    EXPECT_EQ(pool.IdleCount(), 0u);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
}

TEST(SessionPoolTest, ConcurrentAcquireIsSafe) {
  SessionPool pool;
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIterations; ++i) {
        SessionPool::Lease lease = pool.Acquire();
        ASSERT_NE(lease.get(), nullptr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(pool.IdleCount(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace xsact
