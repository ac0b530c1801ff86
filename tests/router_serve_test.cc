// ServiceRouter tests: routing correctness (byte-identity to direct
// QueryService serving and to the single-threaded reference), admission
// control (deadline-exceeded outcomes, queue-full load shedding), stats
// aggregation across datasets, per-dataset hot reload routing, and the
// completion form of Submit (every resolution path runs the completion
// exactly once, with the right code, even against a racing Shutdown).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/faultpoint.h"
#include "data/product_reviews.h"
#include "engine/query_service.h"
#include "engine/router.h"
#include "engine/session.h"
#include "engine/snapshot.h"
#include "table/renderer.h"
#include "xml/io.h"
#include "xml/writer.h"

namespace xsact::engine {
namespace {

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "gps", "camera", "battery life", "kind:laptop"};
  return queries;
}

/// Deterministic byte fingerprint of a serve outcome (table + DoD, or
/// the error text).
std::string Fingerprint(const StatusOr<OutcomePtr>& outcome) {
  if (!outcome.ok()) return "ERR:" + outcome.status().ToString();
  return table::RenderAscii((*outcome)->table) + "#" +
         std::to_string((*outcome)->total_dod);
}

/// Single-threaded reference outcome for `query` against `snapshot`.
std::string Expected(const SnapshotPtr& snapshot, const std::string& query) {
  QuerySession session;
  StatusOr<ComparisonOutcome> outcome =
      SearchAndCompare(*snapshot, &session, query);
  if (!outcome.ok()) {
    return "ERR:" + outcome.status().ToString();
  }
  return table::RenderAscii(outcome->table) + "#" +
         std::to_string(outcome->total_dod);
}

SnapshotPtr MakeCorpus(int num_products, uint64_t seed) {
  data::ProductReviewsConfig config;
  config.num_products = num_products;
  config.seed = seed;
  return CorpusSnapshot::Build(data::GenerateProductReviews(config));
}

class RouterServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = MakeCorpus(20, 11);
    beta_ = MakeCorpus(26, 42);
    for (const std::string& query : Queries()) {
      expected_alpha_.push_back(Expected(alpha_, query));
      expected_beta_.push_back(Expected(beta_, query));
    }
    // The corpora must actually differ, or per-dataset routing is
    // untestable.
    ASSERT_NE(expected_alpha_[0], expected_beta_[0]);
  }

  StatusOr<ServiceRouter> MakeRouter(const QueryServiceOptions& options) {
    return ServiceRouter::Create(
        {{"alpha", alpha_}, {"beta", beta_}}, options);
  }

  SnapshotPtr alpha_;
  SnapshotPtr beta_;
  std::vector<std::string> expected_alpha_;
  std::vector<std::string> expected_beta_;
};

TEST_F(RouterServeTest, CreateRejectsBadSpecs) {
  EXPECT_EQ(ServiceRouter::Create({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceRouter::Create({{"", alpha_}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceRouter::Create({{"alpha", nullptr}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceRouter::Create({{"dup", alpha_}, {"dup", beta_}})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RouterServeTest, ExposesDatasetsSorted) {
  QueryServiceOptions options;
  options.num_threads = 1;
  StatusOr<ServiceRouter> router = ServiceRouter::Create(
      {{"zeta", beta_}, {"alpha", alpha_}}, options);
  ASSERT_TRUE(router.ok()) << router.status();
  EXPECT_EQ(router->num_datasets(), 2u);
  EXPECT_EQ(router->dataset_names(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_NE(router->service("alpha"), nullptr);
  EXPECT_NE(router->service("zeta"), nullptr);
  EXPECT_EQ(router->service("missing"), nullptr);
}

// The acceptance gate: serving through the router is byte-identical to
// serving directly through a per-dataset QueryService, which in turn
// matches the single-threaded reference.
TEST_F(RouterServeTest, RoutedServingIsByteIdenticalToDirectServing) {
  QueryServiceOptions options;
  options.num_threads = 2;
  options.enable_cache = false;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();
  QueryService direct_alpha(alpha_, options);
  QueryService direct_beta(beta_, options);

  for (size_t q = 0; q < Queries().size(); ++q) {
    const std::string routed_alpha =
        Fingerprint(router->Submit("alpha", Queries()[q]).get());
    const std::string routed_beta =
        Fingerprint(router->Submit("beta", Queries()[q]).get());
    EXPECT_EQ(routed_alpha,
              Fingerprint(direct_alpha.Submit(Queries()[q]).get()));
    EXPECT_EQ(routed_beta,
              Fingerprint(direct_beta.Submit(Queries()[q]).get()));
    EXPECT_EQ(routed_alpha, expected_alpha_[q]);
    EXPECT_EQ(routed_beta, expected_beta_[q]);
  }
}

TEST_F(RouterServeTest, UnknownDatasetResolvesNotFound) {
  QueryServiceOptions options;
  options.num_threads = 1;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();
  StatusOr<OutcomePtr> outcome = router->Submit("gamma", "gps").get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  const Status reload = router->ReloadCorpus("gamma", "/tmp/x.xml").get();
  EXPECT_EQ(reload.code(), StatusCode::kNotFound);
}

// A task dequeued at or past its deadline resolves DEADLINE_EXCEEDED
// without being evaluated, and the per-dataset counter records it.
TEST_F(RouterServeTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Deadline expired =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  StatusOr<OutcomePtr> outcome =
      router->Submit("alpha", Queries()[0], {}, 0, expired).get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);

  // A generous deadline serves normally.
  const Deadline relaxed =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  EXPECT_EQ(Fingerprint(router->Submit("alpha", Queries()[0], {}, 0, relaxed)
                            .get()),
            expected_alpha_[0]);

  const RouterStats stats = router->stats();
  ASSERT_EQ(stats.datasets.size(), 2u);
  EXPECT_EQ(stats.datasets[0].dataset, "alpha");
  EXPECT_EQ(stats.datasets[0].admission.deadline_exceeded, 1u);
  EXPECT_EQ(stats.datasets[1].admission.deadline_exceeded, 0u);
  EXPECT_EQ(stats.total_deadline_exceeded(), 1u);
}

// A cache hit resolves at submission — before any queueing — so it is
// served even when the request's deadline has already passed.
TEST_F(RouterServeTest, CacheHitServesDespiteExpiredDeadline) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = true;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  ASSERT_EQ(Fingerprint(router->Submit("alpha", Queries()[0]).get()),
            expected_alpha_[0]);
  const Deadline expired =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(Fingerprint(router->Submit("alpha", Queries()[0], {}, 0, expired)
                            .get()),
            expected_alpha_[0]);
  const RouterStats stats = router->stats();
  EXPECT_EQ(stats.datasets[0].cache.hits, 1u);
  EXPECT_EQ(stats.datasets[0].admission.deadline_exceeded, 0u);
}

// Flooding a single-worker service with a queue bound of 1 must shed:
// rejected futures resolve RESOURCE_EXHAUSTED immediately, accepted ones
// still serve the correct outcome, and the counters add up.
TEST_F(RouterServeTest, FullQueueShedsWithResourceExhausted) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.max_queue = 1;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  constexpr size_t kFlood = 32;
  std::vector<std::future<StatusOr<OutcomePtr>>> futures;
  futures.reserve(kFlood);
  for (size_t i = 0; i < kFlood; ++i) {
    futures.push_back(router->Submit("beta", Queries()[0]));
  }
  size_t ok = 0;
  size_t shed = 0;
  for (auto& future : futures) {
    StatusOr<OutcomePtr> outcome = future.get();
    if (outcome.ok()) {
      EXPECT_EQ(Fingerprint(outcome), expected_beta_[0]);
      ++ok;
    } else {
      ASSERT_EQ(outcome.status().code(), StatusCode::kResourceExhausted)
          << outcome.status();
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kFlood);
  EXPECT_GE(ok, 1u) << "the in-flight and queued tasks must still serve";
  EXPECT_GE(shed, 1u) << "a 32-deep burst into a queue of 1 must shed";

  const RouterStats stats = router->stats();
  ASSERT_EQ(stats.datasets.size(), 2u);
  EXPECT_EQ(stats.datasets[1].dataset, "beta");
  EXPECT_EQ(stats.datasets[1].admission.shed, shed);
  EXPECT_EQ(stats.datasets[1].admission.admitted, ok);
  EXPECT_EQ(stats.datasets[0].admission.shed, 0u);
  EXPECT_EQ(stats.total_shed(), shed);
  EXPECT_EQ(stats.total_queue_depth(), 0u) << "drained after get()";
}

// Stats are attributed to the dataset that served the traffic.
TEST_F(RouterServeTest, StatsAggregatePerDataset) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = true;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  ASSERT_TRUE(router->Submit("alpha", Queries()[0]).get().ok());
  ASSERT_TRUE(router->Submit("alpha", Queries()[0]).get().ok());  // hit
  ASSERT_TRUE(router->Submit("beta", Queries()[1]).get().ok());

  const RouterStats stats = router->stats();
  ASSERT_EQ(stats.datasets.size(), 2u);
  EXPECT_EQ(stats.datasets[0].dataset, "alpha");
  EXPECT_EQ(stats.datasets[0].cache.hits, 1u);
  EXPECT_EQ(stats.datasets[0].cache.misses, 1u);
  EXPECT_EQ(stats.datasets[0].admission.admitted, 1u);
  EXPECT_EQ(stats.datasets[1].dataset, "beta");
  EXPECT_EQ(stats.datasets[1].cache.hits, 0u);
  EXPECT_EQ(stats.datasets[1].cache.misses, 1u);
  EXPECT_EQ(stats.datasets[1].admission.admitted, 1u);
  EXPECT_EQ(stats.datasets[0].epoch, 0u);
  EXPECT_EQ(stats.datasets[1].epoch, 0u);
}

// ReloadCorpus routes to the named service only: the reloaded dataset
// swaps snapshots (and bumps its epoch), the other keeps serving its
// corpus at epoch 0.
TEST_F(RouterServeTest, ReloadRoutesToNamedDatasetOnly) {
  const std::string path =
      ::testing::TempDir() + "/xsact_router_reload.xml";
  data::ProductReviewsConfig config;
  config.num_products = 26;
  config.seed = 42;
  const std::string beta_xml =
      xml::WriteDocument(data::GenerateProductReviews(config),
                         {.indent_width = 2, .declaration = true});
  ASSERT_TRUE(xml::WriteStringToFile(path, beta_xml).ok());
  // Parse-roundtripped corpus: its serve outcomes match a file reload.
  StatusOr<SnapshotPtr> reloaded_ref = CorpusSnapshot::FromXml(beta_xml);
  ASSERT_TRUE(reloaded_ref.ok()) << reloaded_ref.status();
  std::vector<std::string> expected_reloaded;
  for (const std::string& query : Queries()) {
    expected_reloaded.push_back(Expected(*reloaded_ref, query));
  }

  QueryServiceOptions options;
  options.num_threads = 2;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Status reloaded = router->ReloadCorpus("alpha", path).get();
  ASSERT_TRUE(reloaded.ok()) << reloaded;
  EXPECT_EQ(router->service("alpha")->snapshot_epoch(), 1u);
  EXPECT_EQ(router->service("beta")->snapshot_epoch(), 0u);
  for (size_t q = 0; q < Queries().size(); ++q) {
    EXPECT_EQ(Fingerprint(router->Submit("alpha", Queries()[q]).get()),
              expected_reloaded[q]);
    EXPECT_EQ(Fingerprint(router->Submit("beta", Queries()[q]).get()),
              expected_beta_[q]);
  }
  std::remove(path.c_str());
}

// One dataset fed a corrupt corpus must not take the router down: the
// failed reload leaves that dataset serving its last-known-good
// snapshot, its health (and the underlying error) shows up in
// RouterStats, and the healthy dataset is untouched.
TEST_F(RouterServeTest, CorruptDatasetDegradesAloneAndReportsHealth) {
  const std::string corrupt_path =
      ::testing::TempDir() + "/xsact_router_corrupt.xml";
  ASSERT_TRUE(
      xml::WriteStringToFile(corrupt_path,
                             "<products><product><name>truncated mid-tag")
          .ok());

  QueryServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Status failed = router->ReloadCorpus("beta", corrupt_path).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find(corrupt_path), std::string::npos)
      << "reload error must carry the failing path: " << failed;

  // Both datasets keep serving; beta serves its last-known-good corpus.
  for (size_t q = 0; q < Queries().size(); ++q) {
    EXPECT_EQ(Fingerprint(router->Submit("alpha", Queries()[q]).get()),
              expected_alpha_[q]);
    EXPECT_EQ(Fingerprint(router->Submit("beta", Queries()[q]).get()),
              expected_beta_[q]);
  }
  EXPECT_EQ(router->service("beta")->snapshot_epoch(), 0u)
      << "failed reload must not advance the serving state";

  const RouterStats stats = router->stats();
  ASSERT_EQ(stats.datasets.size(), 2u);
  EXPECT_EQ(stats.datasets[0].dataset, "alpha");
  EXPECT_TRUE(stats.datasets[0].health.healthy);
  EXPECT_EQ(stats.datasets[1].dataset, "beta");
  EXPECT_FALSE(stats.datasets[1].health.healthy);
  EXPECT_EQ(stats.datasets[1].health.reload_failures, 1u);
  EXPECT_FALSE(stats.datasets[1].health.last_error.empty());
  EXPECT_EQ(stats.total_unhealthy(), 1u);

  // A good reload restores beta's health.
  const std::string good_path =
      ::testing::TempDir() + "/xsact_router_recover.xml";
  data::ProductReviewsConfig config;
  config.num_products = 26;
  config.seed = 42;
  ASSERT_TRUE(
      xml::WriteStringToFile(
          good_path,
          xml::WriteDocument(data::GenerateProductReviews(config),
                             {.indent_width = 2, .declaration = true}))
          .ok());
  const Status recovered = router->ReloadCorpus("beta", good_path).get();
  ASSERT_TRUE(recovered.ok()) << recovered;
  EXPECT_TRUE(router->stats().datasets[1].health.healthy);
  EXPECT_EQ(router->stats().total_unhealthy(), 0u);
  EXPECT_EQ(router->service("beta")->snapshot_epoch(), 1u);

  std::remove(corrupt_path.c_str());
  std::remove(good_path.c_str());
}

// ---- completion form of Submit ---------------------------------------

/// What one completion received. The completion writes the fields, then
/// bumps `calls` (release); readers observe `calls` (acquire) first.
struct Recorder {
  std::atomic<int> calls{0};
  StatusCode code = StatusCode::kOk;
  std::string fingerprint;

  Completion Sink() {
    return [this](StatusOr<OutcomePtr> result) {
      code = result.status().code();
      fingerprint = Fingerprint(result);
      calls.fetch_add(1, std::memory_order_release);
    };
  }

  /// Ran already (synchronous resolution paths).
  bool Resolved() const { return calls.load(std::memory_order_acquire) > 0; }

  /// Waits up to 10 s for the completion; false if it never ran.
  bool Await() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!Resolved()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

class CompletionTest : public RouterServeTest {
 protected:
  void SetUp() override {
    RouterServeTest::SetUp();
    fault::DisarmAllFaultPoints();
  }
  void TearDown() override { fault::DisarmAllFaultPoints(); }

  /// Arms `site` to fail every hit with `code` (kOk = latency only).
  static void Arm(const char* site, StatusCode code, int delay_ms = 0) {
    fault::FaultSpec spec;
    spec.code = code;
    spec.delay_ms = delay_ms;
    ASSERT_TRUE(fault::ArmFaultPointByName(site, spec)) << site;
  }

  /// Polls until `service` has handed every queued task to a worker.
  static void AwaitEmptyQueue(const QueryService& service) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.admission_stats().queue_depth > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

// Each resolution path of QueryService::Submit (plus the router's
// unknown-dataset path) runs the completion exactly once, with the code
// that path stands for. Counts are checked after the service is
// destroyed, so a late second call would be seen too.
TEST_F(CompletionTest, EveryResolutionPathCompletesExactlyOnce) {
  struct Case {
    const char* path;
    StatusCode want;
    Recorder recorder;
  };
  Case success{"success", StatusCode::kOk, {}};
  Case cache_hit{"cache hit", StatusCode::kOk, {}};
  Case deadline{"dequeue deadline", StatusCode::kDeadlineExceeded, {}};
  Case cancelled{"dequeue cancel", StatusCode::kCancelled, {}};
  Case injected{"injected fault", StatusCode::kInternal, {}};
  Case eval_error{"evaluation error", StatusCode::kInvalidArgument, {}};
  Case held{"in flight at shutdown", StatusCode::kOk, {}};
  Case shed{"shed", StatusCode::kResourceExhausted, {}};
  Case drained{"drained by Shutdown", StatusCode::kCancelled, {}};
  Case rejected{"rejected after Shutdown", StatusCode::kCancelled, {}};
  Case unknown{"unknown dataset", StatusCode::kNotFound, {}};
  {
    QueryServiceOptions options;
    options.num_threads = 1;
    options.max_queue = 1;
    StatusOr<ServiceRouter> router = MakeRouter(options);
    ASSERT_TRUE(router.ok()) << router.status();
    QueryService& alpha = *router->service("alpha");

    router->Submit("alpha", Queries()[0], {}, 0, kNoDeadline, nullptr,
                   success.recorder.Sink());
    ASSERT_TRUE(success.recorder.Await());
    EXPECT_EQ(success.recorder.fingerprint, expected_alpha_[0]);

    // Served from the cache: resolved before Submit returns.
    router->Submit("alpha", Queries()[0], {}, 0, kNoDeadline, nullptr,
                   cache_hit.recorder.Sink());
    EXPECT_TRUE(cache_hit.recorder.Resolved());
    EXPECT_EQ(alpha.cache_stats().hits, 1u);

    router->Submit("alpha", Queries()[1], {}, 0,
                   std::chrono::steady_clock::now() - std::chrono::seconds(1),
                   nullptr, deadline.recorder.Sink());
    ASSERT_TRUE(deadline.recorder.Await());

    CancelSource fired;
    fired.Cancel();
    router->Submit("alpha", Queries()[1], {}, 0, kNoDeadline, &fired,
                   cancelled.recorder.Sink());
    ASSERT_TRUE(cancelled.recorder.Await());

    Arm("service.worker", StatusCode::kInternal);
    router->Submit("alpha", Queries()[1], {}, 0, kNoDeadline, nullptr,
                   injected.recorder.Sink());
    ASSERT_TRUE(injected.recorder.Await());
    fault::DisarmAllFaultPoints();

    // Nothing matches: the comparison itself fails.
    router->Submit("alpha", "zzqqxnomatch", {}, 0, kNoDeadline, nullptr,
                   eval_error.recorder.Sink());
    ASSERT_TRUE(eval_error.recorder.Await());

    // Hold the only worker in a slow fault, fill the one queue slot,
    // and the next submission is shed on the caller's thread.
    Arm("service.worker", StatusCode::kOk, /*delay_ms=*/300);
    router->Submit("alpha", Queries()[2], {}, 0, kNoDeadline, nullptr,
                   held.recorder.Sink());
    AwaitEmptyQueue(alpha);
    router->Submit("alpha", Queries()[3], {}, 0, kNoDeadline, nullptr,
                   drained.recorder.Sink());
    router->Submit("alpha", Queries()[3], {}, 0, kNoDeadline, nullptr,
                   shed.recorder.Sink());
    EXPECT_TRUE(shed.recorder.Resolved());

    // Shutdown resolves the queued task itself, before returning.
    alpha.Shutdown();
    EXPECT_TRUE(drained.recorder.Resolved());
    router->Submit("alpha", Queries()[0], {}, 0, kNoDeadline, nullptr,
                   rejected.recorder.Sink());
    EXPECT_TRUE(rejected.recorder.Resolved());

    router->Submit("gamma", Queries()[0], {}, 0, kNoDeadline, nullptr,
                   unknown.recorder.Sink());
    EXPECT_TRUE(unknown.recorder.Resolved());

    // The beta service is untouched by alpha's shutdown.
    Recorder beta;
    router->Submit("beta", Queries()[0], {}, 0, kNoDeadline, nullptr,
                   beta.Sink());
    ASSERT_TRUE(beta.Await());
    EXPECT_EQ(beta.fingerprint, expected_beta_[0]);
    ASSERT_TRUE(held.recorder.Await());
  }  // router destroyed: every worker joined

  // The task in flight when Shutdown landed ends either way (served, or
  // cancelled at a cooperative check); it must still end exactly once.
  if (held.recorder.code == StatusCode::kCancelled) {
    held.want = StatusCode::kCancelled;
  }
  for (Case* c : {&success, &cache_hit, &deadline, &cancelled, &injected,
                  &eval_error, &held, &shed, &drained, &rejected, &unknown}) {
    EXPECT_EQ(c->recorder.calls.load(std::memory_order_acquire), 1) << c->path;
    EXPECT_EQ(c->recorder.code, c->want) << c->path;
  }
}

// Shutdown() racing 8 submitter threads: every submission — served from
// the cache, evaluated, drained from the queue, or rejected at either
// drain check — completes exactly once, either kCancelled or with the
// single-threaded reference outcome of its query.
TEST_F(CompletionTest, ShutdownRacingSubmittersCompletesEachExactlyOnce) {
  constexpr int kThreads = 8;
  // Each submitter keeps going until it sees the shutdown, then submits
  // kAfter more, so both sides of the race are always exercised.
  constexpr int kAfter = 4;
  constexpr size_t kCap = 20000;
  std::vector<std::deque<Recorder>> recorders(kThreads);
  {
    QueryServiceOptions options;
    options.num_threads = 2;
    StatusOr<ServiceRouter> router = MakeRouter(options);
    ASSERT_TRUE(router.ok()) << router.status();
    std::atomic<int> started{0};
    std::atomic<bool> shut{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        started.fetch_add(1, std::memory_order_relaxed);
        int after = 0;
        for (size_t i = 0; after < kAfter && i < kCap; ++i) {
          if (shut.load(std::memory_order_acquire)) ++after;
          const size_t q = (static_cast<size_t>(t) + i) % Queries().size();
          recorders[t].emplace_back();
          router->Submit("alpha", Queries()[q], {}, 0, kNoDeadline, nullptr,
                         recorders[t].back().Sink());
        }
      });
    }
    while (started.load(std::memory_order_relaxed) < kThreads) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    router->service("alpha")->Shutdown();
    shut.store(true, std::memory_order_release);
    for (std::thread& t : submitters) t.join();
  }  // router destroyed: every worker joined
  size_t cancelled = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < recorders[t].size(); ++i) {
      const Recorder& r = recorders[t][i];
      ASSERT_EQ(r.calls.load(std::memory_order_acquire), 1);
      if (r.code == StatusCode::kCancelled) {
        ++cancelled;
        continue;
      }
      const size_t q = (static_cast<size_t>(t) + i) % Queries().size();
      EXPECT_EQ(r.fingerprint, expected_alpha_[q]);
    }
  }
  EXPECT_GE(cancelled, static_cast<size_t>(kThreads * kAfter));
}

// The future-returning Submit is a wrapper over the completion form:
// both yield byte-identical outcomes (and identical errors).
TEST_F(CompletionTest, FutureWrapperMatchesCompletionForm) {
  QueryServiceOptions options;
  options.num_threads = 2;
  options.enable_cache = false;
  StatusOr<ServiceRouter> router = MakeRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();
  for (const char* dataset : {"alpha", "beta", "gamma"}) {
    for (const std::string& query : Queries()) {
      Recorder recorder;
      router->Submit(dataset, query, {}, 0, kNoDeadline, nullptr,
                     recorder.Sink());
      const std::string via_future =
          Fingerprint(router->Submit(dataset, query).get());
      ASSERT_TRUE(recorder.Await());
      EXPECT_EQ(recorder.fingerprint, via_future) << dataset << " " << query;

      Recorder direct;
      if (QueryService* service = router->service(dataset)) {
        service->Submit(query, {}, 0, kNoDeadline, nullptr, direct.Sink());
        ASSERT_TRUE(direct.Await());
        EXPECT_EQ(direct.fingerprint,
                  Fingerprint(service->Submit(query).get()));
      }
    }
  }
}

}  // namespace
}  // namespace xsact::engine
