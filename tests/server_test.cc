// HttpServer integration tests: real sockets against a live event loop.
// Covers the serving contract end to end — byte-identical /query bodies
// vs the direct router path, the shared Status→HTTP mapping (404/429/
// 500/504 + Retry-After), keep-alive and pipelining, slow-loris 408,
// idle-close accounting, oversized-request 431, connection-cap 503,
// client-disconnect cancellation reaching the engine, graceful vs forced
// drain, server destruction while a detached evaluation still runs, and
// the accept backoff when the process is out of descriptors.

#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/faultpoint.h"
#include "data/product_reviews.h"
#include "engine/router.h"
#include "engine/snapshot.h"
#include "server/http_client.h"
#include "table/renderer.h"

namespace xsact::server {
namespace {

using engine::QueryServiceOptions;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAllFaultPoints(); }

  void TearDown() override {
    StopServer();
    fault::DisarmAllFaultPoints();
  }

  engine::SnapshotPtr BuildCorpus() {
    data::ProductReviewsConfig config;
    config.num_products = 16;
    config.seed = 7;
    return engine::CorpusSnapshot::Build(
        data::GenerateProductReviews(config));
  }

  /// Builds a router over `dataset_names` (all sharing one immutable
  /// snapshot — legal, snapshots are corpus-constant) and runs the
  /// server on a background thread.
  void StartServer(ServerOptions options = {},
                   QueryServiceOptions service_options = {},
                   std::vector<std::string> dataset_names = {"products"}) {
    const engine::SnapshotPtr snapshot = BuildCorpus();
    std::vector<engine::DatasetSpec> specs;
    for (std::string& name : dataset_names) {
      specs.push_back({std::move(name), snapshot});
    }
    StatusOr<engine::ServiceRouter> router =
        engine::ServiceRouter::Create(std::move(specs), service_options);
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::make_unique<engine::ServiceRouter>(std::move(*router));
    server_ = std::make_unique<HttpServer>(router_.get(), options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    thread_ = std::thread([this] { server_->Run(); });
  }

  void StopServer() {
    if (server_ != nullptr) server_->Stop();
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return server_->port(); }

  std::unique_ptr<engine::ServiceRouter> router_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

TEST_F(ServerTest, QueryBodyIsByteIdenticalToDirectRouterPath) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> response = client.Get("/query?q=gps");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 200);

  StatusOr<engine::OutcomePtr> direct =
      router_->Submit("products", "gps").get();
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(response->body, table::RenderJson((*direct)->table))
      << "HTTP serving must not alter the rendered outcome";
}

TEST_F(ServerTest, PostBodyServesLikeQueryParameter) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> get = client.Get("/query?q=gps");
  StatusOr<ClientResponse> post = client.Post("/query", "gps", "text/plain");
  ASSERT_TRUE(get.ok()) << get.status();
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->code, 200);
  EXPECT_EQ(post->body, get->body);
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartServer();
  HttpClient client(port());
  for (int i = 0; i < 5; ++i) {
    StatusOr<ClientResponse> response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, 200);
    EXPECT_TRUE(response->keep_alive);
  }
  EXPECT_EQ(server_->stats().accepted, 1u)
      << "keep-alive requests must reuse the connection";
}

TEST_F(ServerTest, PipelinedRequestsAllAnswered) {
  StartServer();
  HttpClient client(port());
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  for (int i = 0; i < 2; ++i) {
    StatusOr<ClientResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, 200);
  }
}

TEST_F(ServerTest, HealthzAndStatzReportServingState) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->code, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);

  ASSERT_TRUE(client.Get("/query?q=gps").ok());
  StatusOr<ClientResponse> statz = client.Get("/statz");
  ASSERT_TRUE(statz.ok()) << statz.status();
  EXPECT_EQ(statz->code, 200);
  EXPECT_NE(statz->body.find("\"server\""), std::string::npos);
  EXPECT_NE(statz->body.find("\"dataset\":\"products\""), std::string::npos);
  EXPECT_NE(statz->body.find("\"admission\""), std::string::npos);
  EXPECT_NE(statz->body.find("\"health\""), std::string::npos);
  EXPECT_NE(statz->body.find("\"node_table_bytes\":"), std::string::npos);
  EXPECT_NE(statz->body.find("\"postings_bytes\":"), std::string::npos);
  EXPECT_NE(statz->body.find("\"draining\":false"), std::string::npos);
}

// ---- error mapping (common/status.h is the shared source of truth) ---

TEST_F(ServerTest, UnknownDatasetMapsNotFoundTo404) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> response =
      client.Get("/query?dataset=nope&q=gps");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 404);
  EXPECT_NE(response->body.find("unknown dataset"), std::string::npos);
}

TEST_F(ServerTest, AmbiguousDatasetIs400WithSeveralDatasets) {
  StartServer({}, {}, {"left", "right"});
  HttpClient client(port());
  StatusOr<ClientResponse> response = client.Get("/query?q=gps");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 400);

  StatusOr<ClientResponse> routed =
      client.Get("/query?dataset=right&q=gps");
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(routed->code, 200);
}

TEST_F(ServerTest, MissingQueryIs400) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> response = client.Get("/query");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 400);
}

TEST_F(ServerTest, MalformedNumericParameterIs400) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> response =
      client.Get("/query?q=gps&max_results=lots");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 400);
}

TEST_F(ServerTest, UnknownEndpointIs404AndMethodIs405) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->code, 404);

  StatusOr<ClientResponse> put = client.Request("PUT", "/query", {}, "x");
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->code, 405);
  ASSERT_NE(put->FindHeader("allow"), nullptr);
}

TEST_F(ServerTest, ShedRequestMaps429WithRetryAfter) {
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  service_options.max_queue = 1;
  StartServer({}, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 150;  // hold the single worker busy
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  // Three concurrent requests: one evaluating, one queued, one shed.
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (const char* q : {"gps", "camera", "battery"}) {
    clients.push_back(std::make_unique<HttpClient>(port()));
    ASSERT_TRUE(clients.back()
                    ->SendRaw(std::string("GET /query?q=") + q +
                              " HTTP/1.1\r\n\r\n")
                    .ok());
    // Let the server dispatch in order so exactly one overflows.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  int ok_count = 0;
  int shed_count = 0;
  for (auto& client : clients) {
    StatusOr<ClientResponse> response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->code == 200) {
      ++ok_count;
    } else if (response->code == 429) {
      ++shed_count;
      const std::string* retry = response->FindHeader("retry-after");
      ASSERT_NE(retry, nullptr) << "429 must carry Retry-After";
      EXPECT_EQ(*retry, "1");
    } else {
      FAIL() << "unexpected status " << response->code;
    }
  }
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(shed_count, 1);
}

TEST_F(ServerTest, ExpiredDeadlineMaps504) {
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer({}, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 150;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient busy(port());
  ASSERT_TRUE(busy.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  HttpClient expired(port());
  StatusOr<ClientResponse> response =
      expired.Get("/query?q=camera&timeout_ms=20");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 504);
  StatusOr<ClientResponse> first = busy.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->code, 200);
}

TEST_F(ServerTest, EngineFailureMaps500) {
  QueryServiceOptions service_options;
  service_options.enable_cache = false;
  StartServer({}, service_options);

  fault::FaultSpec broken;
  broken.code = StatusCode::kInternal;
  broken.message = "chaos-worker-broken";
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", broken));

  HttpClient client(port());
  StatusOr<ClientResponse> response = client.Get("/query?q=gps");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 500);
  EXPECT_NE(response->body.find("chaos-worker-broken"), std::string::npos);

  fault::DisarmAllFaultPoints();
  StatusOr<ClientResponse> recovered = client.Get("/query?q=gps");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->code, 200) << "server must recover after the fault";
}

// ---- hostile clients -------------------------------------------------

TEST_F(ServerTest, SlowLorisGets408) {
  ServerOptions options;
  options.read_timeout_ms = 200;
  StartServer(options);
  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\nHos").ok());
  StatusOr<ClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 408);
  EXPECT_FALSE(response->keep_alive);
  EXPECT_GE(server_->stats().timeouts, 1u);
}

TEST_F(ServerTest, IdleKeepAliveTimeoutIsCounted) {
  ServerOptions options;
  options.idle_timeout_ms = 200;
  StartServer(options);
  EXPECT_EQ(server_->stats().timeouts, 0u);
  HttpClient client(port());
  StatusOr<ClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_TRUE(health->keep_alive);
  EXPECT_EQ(server_->stats().timeouts, 0u);

  // The connection now sits idle past idle_timeout_ms; the loop closes
  // it and must count that close in /statz's timeouts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server_->stats().timeouts, 1u);
  // The close is silent: EOF, no response.
  EXPECT_FALSE(client.ReadResponse().ok());
}

TEST_F(ServerTest, IdleKeepAliveConnectionIsClosedSilently) {
  ServerOptions options;
  options.idle_timeout_ms = 200;
  StartServer(options);
  HttpClient client(port());
  ASSERT_TRUE(client.Connect().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // Never sent a byte: the close must be silent (EOF, no 408).
  StatusOr<ClientResponse> response = client.ReadResponse();
  EXPECT_FALSE(response.ok());

  // The server is still accepting fresh connections.
  HttpClient fresh(port());
  StatusOr<ClientResponse> health = fresh.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->code, 200);
}

TEST_F(ServerTest, SlowQueryDoesNotTripIdleTimeoutAfterResponse) {
  ServerOptions options;
  options.idle_timeout_ms = 200;
  QueryServiceOptions service_options;
  service_options.enable_cache = false;
  StartServer(options, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 400;  // evaluation alone outlasts idle_timeout_ms
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  StatusOr<ClientResponse> first = client.Get("/query?q=gps");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->code, 200);
  EXPECT_TRUE(first->keep_alive);

  // The idle clock restarts when the response is queued, so immediate
  // reuse must ride the SAME connection — not get closed as "idle the
  // whole time the engine was evaluating".
  fault::DisarmAllFaultPoints();
  StatusOr<ClientResponse> second = client.Get("/query?q=camera");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->code, 200);
  EXPECT_EQ(server_->stats().accepted, 1u);
}

TEST_F(ServerTest, OversizedHeadersGet431AndClose) {
  StartServer();
  HttpClient client(port());
  StatusOr<ClientResponse> response = client.Request(
      "GET", "/healthz", {{"X-Big", std::string(20000, 'b')}}, "");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 431);
  EXPECT_FALSE(response->keep_alive);
}

TEST_F(ServerTest, GarbageBytesGet400NeverReachTheEngine) {
  StartServer();
  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("\x16\x03\x01\x7f\r\n\r\n").ok());
  StatusOr<ClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 400);
  EXPECT_EQ(router_->stats().datasets[0].admission.admitted, 0u)
      << "garbage must be rejected before the engine sees it";
}

TEST_F(ServerTest, LargePostBodyUpToLimitIsServed) {
  StartServer();
  HttpClient client(port());
  // 256 KiB in one burst — well past the 64 KiB pipelining flood cap
  // but within max_body_bytes: the parser must consume it as it
  // arrives instead of the server dropping the connection as a flood.
  const std::string big(256 * 1024, 'x');
  StatusOr<ClientResponse> post =
      client.Post("/query?q=gps", big, "text/plain");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->code, 200);
  EXPECT_TRUE(post->keep_alive);
  EXPECT_EQ(server_->stats().disconnects, 0u);

  StatusOr<ClientResponse> get = client.Get("/query?q=gps");
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(post->body, get->body);
}

TEST_F(ServerTest, FloodDuringEvaluationClosesAndCancels) {
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer({}, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 400;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Flood 128 KiB while the engine owns the request. The flood close is
  // NOT a clean EOF, yet it must still abandon the in-flight work.
  [[maybe_unused]] const Status ignored =
      client.SendRaw(std::string(128 * 1024, 'F'));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().cancelled_by_disconnect == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().cancelled_by_disconnect, 1u);
  EXPECT_GE(server_->stats().disconnects, 1u);
}

TEST_F(ServerTest, ConnectionCapAnswers503) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  HttpClient occupant(port());
  ASSERT_TRUE(occupant.Get("/healthz").ok());  // holds its keep-alive slot
  HttpClient rejected(port());
  StatusOr<ClientResponse> response = rejected.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 503);
  EXPECT_GE(server_->stats().rejected_at_capacity, 1u);
}

TEST_F(ServerTest, ClientDisconnectCancelsEngineWork) {
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer({}, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 300;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  client.Close();  // hang up while the engine is mid-evaluation

  // The event loop must notice the EOF and fire the request's cancel.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().cancelled_by_disconnect == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().cancelled_by_disconnect, 1u);

  // The stack stays fully serviceable afterwards.
  fault::DisarmAllFaultPoints();
  HttpClient second(port());
  StatusOr<ClientResponse> response = second.Get("/query?q=camera");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 200);
}

// The peer leaves mid-evaluation, then the server is stopped and
// destroyed while the engine still runs that detached request: the
// destructor must wait for the completion, which would otherwise touch
// a freed server (the ASan+UBSan job runs this suite).
TEST_F(ServerTest, DestroyedWhileDetachedEvaluationRuns) {
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer({}, service_options);

  constexpr int kDelayMs = 1500;
  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = kDelayMs;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  client.Close();
  const auto deadline = sent + std::chrono::seconds(5);
  while (server_->stats().cancelled_by_disconnect == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Run() returns without waiting for the detached request.
  StopServer();
  EXPECT_LT(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(kDelayMs))
      << "the evaluation must still be running when the server goes";
  EXPECT_EQ(server_->stats().cancelled_by_disconnect, 1u);
  server_.reset();

  // The engine finished the abandoned task and still serves.
  fault::DisarmAllFaultPoints();
  StatusOr<engine::OutcomePtr> outcome =
      router_->Submit("products", "camera").get();
  EXPECT_TRUE(outcome.ok()) << outcome.status();
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Out of descriptors, accept() fails and leaves the connection queued,
// so the listener stays readable. The loop must rest the listener, not
// spin on it, and serve the client once descriptors are back. Only this
// process's soft RLIMIT_NOFILE is lowered, and it is restored on exit.
TEST_F(ServerTest, AcceptAtDescriptorLimitBacksOffInsteadOfSpinning) {
  StartServer();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};

  // The lowest free descriptor; the limit leaves room for exactly one
  // more — the client's socket — so the server's accept() gets EMFILE.
  const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(probe) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  HttpClient client(port());
  ASSERT_TRUE(client.Connect().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().accept_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server_->stats().accept_errors, 1u);

  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_used = ProcessCpuSeconds() - cpu_before;
  EXPECT_LT(cpu_used, 0.1) << "the loop spins on the refused listener";
  EXPECT_EQ(server_->stats().accepted, 0u);

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  StatusOr<ClientResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 200);
  EXPECT_EQ(server_->stats().accepted, 1u);

  HttpClient statz(port());
  StatusOr<ClientResponse> stats = statz.Get("/statz");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->body.find("\"accept_errors\":"), std::string::npos);
}

// ---- graceful drain --------------------------------------------------

TEST_F(ServerTest, GracefulDrainFinishesInflightWithinBudget) {
  ServerOptions options;
  options.drain_budget_ms = 3000;
  QueryServiceOptions service_options;
  service_options.enable_cache = false;
  StartServer(options, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 200;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();

  // In-flight request completes normally; the response sheds the
  // connection (draining servers never keep-alive).
  StatusOr<ClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 200);
  EXPECT_FALSE(response->keep_alive);

  thread_.join();  // Run() must return after the drain
  EXPECT_TRUE(server_->draining());

  // New connections are refused (listener closed).
  HttpClient late(port());
  EXPECT_FALSE(late.Connect().ok());
}

TEST_F(ServerTest, ExhaustedDrainBudgetHardCancelsVia499) {
  ServerOptions options;
  options.drain_budget_ms = 50;
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer(options, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 1000;  // far past the drain budget
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  HttpClient client(port());
  ASSERT_TRUE(client.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  StatusOr<ClientResponse> response = client.ReadResponse();
  thread_.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  // The engine was hard-cancelled: the client sees 499 (request
  // cancelled) and the drain completes promptly instead of waiting out
  // the full evaluation.
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, 499);
  EXPECT_LT(elapsed.count(), 10000);
}

TEST_F(ServerTest, QueryDuringDrainIs503) {
  ServerOptions options;
  options.drain_budget_ms = 1000;
  QueryServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_cache = false;
  StartServer(options, service_options);

  fault::FaultSpec slow;
  slow.code = StatusCode::kOk;  // pure latency injection
  slow.delay_ms = 400;
  ASSERT_TRUE(fault::ArmFaultPointByName("service.worker", slow));

  // Keep one request in flight so the drain lingers, then ask again on
  // an ALREADY-ACCEPTED connection (new connects are refused outright).
  HttpClient busy(port());
  ASSERT_TRUE(busy.SendRaw("GET /query?q=gps HTTP/1.1\r\n\r\n").ok());
  HttpClient parked(port());
  ASSERT_TRUE(parked.Connect().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  StatusOr<ClientResponse> refused = parked.Get("/query?q=camera");
  if (refused.ok()) {
    EXPECT_EQ(refused->code, 503);
  }  // else: the drain already closed the idle connection — also correct

  StatusOr<ClientResponse> inflight = busy.ReadResponse();
  ASSERT_TRUE(inflight.ok()) << inflight.status();
  EXPECT_EQ(inflight->code, 200);
  thread_.join();
}

}  // namespace
}  // namespace xsact::server
