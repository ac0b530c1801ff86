// bench_server_serve — the hardened HTTP front-end under load: one
// HttpServer over a ServiceRouter serving the bundled corpora to real
// loopback sockets.
//
// Gates (exit non-zero on failure):
//   * wire byte-identity: every 200 body served over HTTP must be
//     byte-identical to table::RenderJson of the outcome the router
//     returns for the same (dataset, query) — the network layer adds
//     framing, never content;
//   * throughput/latency: a keep-alive client fleet must sustain a
//     floor QPS with a bounded p99 (floors are deliberately loose so
//     the gate catches pathologies, not machine variance);
//   * chaos: a storm of garbage, mid-request disconnects, and injected
//     transport faults must leave the server alive and serving
//     byte-identical answers (zero crashes, zero wedges);
//   * drain: Stop() with requests in flight must complete within the
//     drain budget plus bounded slack;
//   * uncached overhead: with the result cache off, the same wire
//     queries are timed over HTTP and by direct router->Submit, taking
//     turns; the HTTP p50 may exceed the direct p50 by at most 0.75 ms
//     (what the event loop adds to a request that really computes — a
//     future-polling loop with a 2 ms tick measured ~1.3 ms here).
//
// Emits machine-readable BENCH_server_serve.json.

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/faultpoint.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "engine/router.h"
#include "engine/snapshot.h"
#include "server/http_client.h"
#include "server/server.h"
#include "table/renderer.h"

namespace {

using namespace xsact;

/// One servable unit: dataset, URL-ready query string, and the direct
/// router arguments that must produce the identical body.
struct WireQuery {
  std::string dataset;
  std::string url;    ///< /query target, percent-encoded
  std::string query;  ///< raw query text for the direct path
  engine::CompareOptions options;
};

std::string PercentEncode(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == ' ') {
      out += "%20";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct Corpora {
  std::vector<engine::DatasetSpec> specs;
  std::vector<WireQuery> queries;
};

Corpora BuildCorpora() {
  Corpora out;
  {
    data::ProductReviewsConfig config;
    config.num_products = 48;
    out.specs.push_back({"products", engine::CorpusSnapshot::Build(
                                         data::GenerateProductReviews(config))});
    for (const char* text : {"gps", "camera", "phone"}) {
      WireQuery q;
      q.dataset = "products";
      q.query = text;
      q.url = "/query?dataset=products&q=" + PercentEncode(text);
      out.queries.push_back(std::move(q));
    }
  }
  {
    data::OutdoorRetailerConfig config;
    out.specs.push_back({"outdoor", engine::CorpusSnapshot::Build(
                                        data::GenerateOutdoorRetailer(config))});
    WireQuery q;
    q.dataset = "outdoor";
    q.query = "men jackets";
    q.options.lift_results_to = "brand";
    q.url = "/query?dataset=outdoor&q=men%20jackets&lift=brand";
    out.queries.push_back(std::move(q));
  }
  {
    data::MoviesConfig config;
    out.specs.push_back(
        {"movies", engine::CorpusSnapshot::Build(data::GenerateMovies(config))});
    size_t added = 0;
    for (const data::QuerySpec& spec : data::MovieQueryWorkload()) {
      WireQuery q;
      q.dataset = "movies";
      q.query = spec.query;
      q.url = "/query?dataset=movies&q=" + PercentEncode(spec.query);
      out.queries.push_back(std::move(q));
      if (++added == 3) break;  // a serving mix, not the full sweep
    }
  }
  return out;
}

/// Runs the server event loop on its own thread for the current scope.
class ScopedServer {
 public:
  ScopedServer(engine::ServiceRouter* router, server::ServerOptions options)
      : server_(router, options) {
    const Status started = server_.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL server start: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
    thread_ = std::thread([this] { server_.Run(); });
  }

  ~ScopedServer() { StopAndJoin(); }

  /// Returns milliseconds from Stop() to Run() returning.
  double StopAndJoin() {
    if (!thread_.joinable()) return 0;
    Timer timer;
    server_.Stop();
    thread_.join();
    return timer.ElapsedMillis();
  }

  server::HttpServer& get() { return server_; }
  int port() const { return server_.port(); }

 private:
  server::HttpServer server_;
  std::thread thread_;
};

}  // namespace

int main() {
  bench::Header("server_serve",
                "hardened HTTP front-end: wire byte-identity, keep-alive "
                "throughput, network chaos, graceful drain");

  Corpora corpora = BuildCorpora();
  bool gate_ok = true;

  engine::QueryServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.enable_cache = true;
  auto router = engine::ServiceRouter::Create(corpora.specs, service_options);
  if (!router.ok()) {
    std::fprintf(stderr, "FAIL router create: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }

  // --- Gate 1: wire byte-identity vs the direct router path ------------
  {
    ScopedServer server(&*router, {});
    server::HttpClient client(server.port());
    size_t checked = 0;
    for (const WireQuery& q : corpora.queries) {
      auto response = client.Get(q.url);
      if (!response.ok() || response->code != 200) {
        std::fprintf(stderr, "FAIL identity: %s -> %s\n", q.url.c_str(),
                     response.ok() ? std::to_string(response->code).c_str()
                                   : response.status().ToString().c_str());
        gate_ok = false;
        continue;
      }
      auto direct = router->Submit(q.dataset, q.query, q.options).get();
      if (!direct.ok()) {
        std::fprintf(stderr, "FAIL identity: direct serve of \"%s\": %s\n",
                     q.query.c_str(), direct.status().ToString().c_str());
        gate_ok = false;
        continue;
      }
      if (response->body != table::RenderJson((*direct)->table)) {
        std::fprintf(stderr,
                     "FAIL identity: HTTP body for \"%s\" on %s diverged "
                     "from the direct router outcome\n",
                     q.query.c_str(), q.dataset.c_str());
        gate_ok = false;
      }
      ++checked;
    }
    std::printf("identity: %zu wire bodies == direct RenderJson%s\n", checked,
                gate_ok ? "" : "  ** FAILED **");
  }

  // --- Gate 2: keep-alive throughput and p99 ----------------------------
  double qps = 0;
  double p99_ms = 0;
  {
    ScopedServer server(&*router, {});
    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 100;
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<int> failures(kClients, 0);
    Timer wall;
    std::vector<std::thread> fleet;
    for (int t = 0; t < kClients; ++t) {
      fleet.emplace_back([&, t] {
        server::HttpClient client(server.port());
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const WireQuery& q =
              corpora.queries[(t + i) % corpora.queries.size()];
          Timer timer;
          auto response = client.Get(q.url);
          if (!response.ok() || response->code != 200) {
            ++failures[t];
            continue;
          }
          latencies[t].push_back(timer.ElapsedMillis());
        }
      });
    }
    for (std::thread& t : fleet) t.join();
    const double seconds = wall.ElapsedSeconds();

    SampleStats all;
    int total_failures = 0;
    size_t total_ok = 0;
    for (int t = 0; t < kClients; ++t) {
      total_failures += failures[t];
      for (double sample : latencies[t]) {
        all.Add(sample);
        ++total_ok;
      }
    }
    qps = seconds > 0 ? static_cast<double>(total_ok) / seconds : 0;
    p99_ms = all.Percentile(99.0);
    std::printf("throughput: %zu keep-alive requests over %d clients — "
                "%.1f qps, p50 %.2f ms, p99 %.2f ms, failures %d\n",
                total_ok, kClients, qps, all.Median(), p99_ms,
                total_failures);
    if (total_failures > 0) {
      std::fprintf(stderr, "FAIL throughput: %d request(s) failed\n",
                   total_failures);
      gate_ok = false;
    }
    // Loose floors: catch a wedged event loop or a quadratic parser,
    // not machine noise.
    if (qps < 20.0) {
      std::fprintf(stderr, "FAIL throughput: %.1f qps below the 20 floor\n",
                   qps);
      gate_ok = false;
    }
    if (p99_ms > 1000.0) {
      std::fprintf(stderr, "FAIL throughput: p99 %.2f ms above 1000 ms\n",
                   p99_ms);
      gate_ok = false;
    }
  }

  // --- Gate 3: network chaos, zero crash, full recovery -----------------
  uint64_t chaos_parse_errors = 0;
  {
    ScopedServer server(&*router, {});
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const char* points[] = {"server.accept", "server.read", "server.write"};
    for (int round = 0; round < 4; ++round) {
      fault::DisarmAllFaultPoints();
      for (const char* point : points) {
        if (coin(rng) < 0.5) {
          fault::FaultSpec spec;
          spec.code = StatusCode::kIoError;
          spec.probability = 0.3;
          spec.seed = rng();
          fault::ArmFaultPointByName(point, spec);
        }
      }
      for (int i = 0; i < 25; ++i) {
        server::HttpClient client(server.port(), 2000);
        const double dice = coin(rng);
        if (dice < 0.4) {
          (void)client.Get(
              corpora.queries[rng() % corpora.queries.size()].url);
        } else if (dice < 0.7) {
          std::string garbage;
          for (size_t b = 0; b < 1 + rng() % 48; ++b) {
            garbage.push_back(static_cast<char>(1 + rng() % 255));
          }
          if (client.SendRaw(garbage + "\r\n\r\n").ok()) {
            (void)client.ReadResponse();
          }
        } else {
          (void)client.SendRaw("GET /query?q=gps HTTP/1.1\r\nHo");
          client.Close();  // vanish mid-request
        }
      }
    }
    fault::DisarmAllFaultPoints();
    chaos_parse_errors = server.get().stats().parse_errors;

    // Recovery: the same byte-identity contract must hold post-storm.
    server::HttpClient probe(server.port());
    const WireQuery& q = corpora.queries[0];
    auto response = probe.Get(q.url);
    auto direct = router->Submit(q.dataset, q.query, q.options).get();
    if (!response.ok() || response->code != 200 || !direct.ok() ||
        response->body != table::RenderJson((*direct)->table)) {
      std::fprintf(stderr, "FAIL chaos: server did not recover to "
                           "byte-identical serving\n");
      gate_ok = false;
    }
    std::printf("chaos: 100 hostile clients, %llu parse errors, zero "
                "crashes, byte-identical after recovery%s\n",
                static_cast<unsigned long long>(chaos_parse_errors),
                gate_ok ? "" : "  ** FAILED **");
  }

  // --- Gate 4: graceful drain within budget -----------------------------
  double drain_ms = 0;
  {
    constexpr int kDrainBudgetMs = 1000;
    server::ServerOptions options;
    options.drain_budget_ms = kDrainBudgetMs;
    ScopedServer server(&*router, options);
    // Leave requests in flight when the stop lands.
    std::vector<std::unique_ptr<server::HttpClient>> inflight;
    for (int i = 0; i < 6; ++i) {
      inflight.push_back(
          std::make_unique<server::HttpClient>(server.port(), 5000));
      const WireQuery& q = corpora.queries[i % corpora.queries.size()];
      (void)inflight.back()->SendRaw("GET " + q.url + " HTTP/1.1\r\n\r\n");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    drain_ms = server.StopAndJoin();
    // Budget plus the forced-drain grace window plus scheduling slack.
    if (drain_ms > kDrainBudgetMs + 2500) {
      std::fprintf(stderr, "FAIL drain: %.0f ms exceeded the %d ms budget "
                           "(+2500 ms slack)\n",
                   drain_ms, kDrainBudgetMs);
      gate_ok = false;
    }
    int answered = 0;
    for (auto& client : inflight) {
      auto response = client->ReadResponse();
      if (response.ok() && response->code == 200) ++answered;
    }
    std::printf("drain: stopped with 6 in flight in %.0f ms (budget %d ms), "
                "%d answered before close\n",
                drain_ms, kDrainBudgetMs, answered);
  }
  // --- Gate 5: uncached HTTP vs direct Submit ---------------------------
  constexpr double kMaxUncachedGapMs = 0.75;
  SampleStats uncached_http;
  SampleStats uncached_direct;
  {
    engine::QueryServiceOptions uncached_options = service_options;
    uncached_options.enable_cache = false;
    auto uncached =
        engine::ServiceRouter::Create(corpora.specs, uncached_options);
    if (!uncached.ok()) {
      std::fprintf(stderr, "FAIL uncached router create: %s\n",
                   uncached.status().ToString().c_str());
      return 1;
    }
    ScopedServer server(&*uncached, {});
    server::HttpClient client(server.port());
    constexpr int kPasses = 30;  // plus one unrecorded warm-up pass
    for (int pass = 0; pass <= kPasses; ++pass) {
      for (const WireQuery& q : corpora.queries) {
        for (int leg = 0; leg < 2; ++leg) {
          // The two paths take turns going first.
          const bool http = (leg + pass) % 2 == 0;
          Timer timer;
          std::string body;
          bool ok = false;
          if (http) {
            auto response = client.Get(q.url);
            ok = response.ok() && response->code == 200;
            if (ok) body = std::move(response->body);
          } else {
            auto direct =
                uncached->Submit(q.dataset, q.query, q.options).get();
            ok = direct.ok();
            if (ok) body = table::RenderJson((*direct)->table);
          }
          const double ms = timer.ElapsedMillis();
          if (!ok) {
            std::fprintf(stderr, "FAIL uncached: %s via %s failed\n",
                         q.url.c_str(), http ? "HTTP" : "Submit");
            gate_ok = false;
            continue;
          }
          if (pass > 0) (http ? uncached_http : uncached_direct).Add(ms);
        }
      }
    }
    if (uncached->stats().datasets[0].cache.hits != 0) {
      std::fprintf(stderr, "FAIL uncached: the cache served a request\n");
      gate_ok = false;
    }
  }
  const double uncached_gap_ms =
      uncached_http.Median() - uncached_direct.Median();
  std::printf("uncached: HTTP p50 %.3f ms [p25 %.3f, p75 %.3f], direct "
              "Submit p50 %.3f ms [p25 %.3f, p75 %.3f], gap %.3f ms "
              "(gate <= %.2f ms)\n",
              uncached_http.Median(), uncached_http.Percentile(25),
              uncached_http.Percentile(75), uncached_direct.Median(),
              uncached_direct.Percentile(25), uncached_direct.Percentile(75),
              uncached_gap_ms, kMaxUncachedGapMs);
  if (uncached_gap_ms > kMaxUncachedGapMs) {
    std::fprintf(stderr, "FAIL uncached: HTTP adds %.3f ms over direct "
                         "Submit (gate %.2f ms)\n",
                 uncached_gap_ms, kMaxUncachedGapMs);
    gate_ok = false;
  }
  bench::Rule();

  FILE* json = std::fopen("BENCH_server_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"server_serve\",\n"
                 "  \"datasets\": %zu,\n  \"wire_queries\": %zu,\n"
                 "  \"qps\": %.1f,\n  \"p99_ms\": %.2f,\n"
                 "  \"chaos_parse_errors\": %llu,\n"
                 "  \"drain_ms\": %.0f,\n"
                 "  \"uncached_http_p50_ms\": %.3f,\n"
                 "  \"uncached_direct_p50_ms\": %.3f,\n"
                 "  \"uncached_gap_ms\": %.3f,\n"
                 "  \"uncached_gap_gate_ms\": %.2f,\n"
                 "  \"gates\": \"%s\"\n}\n",
                 corpora.specs.size(), corpora.queries.size(), qps, p99_ms,
                 static_cast<unsigned long long>(chaos_parse_errors),
                 drain_ms, uncached_http.Median(), uncached_direct.Median(),
                 uncached_gap_ms, kMaxUncachedGapMs,
                 gate_ok ? "ok" : "FAILED");
    std::fclose(json);
  }

  if (!gate_ok) {
    std::fprintf(stderr, "server_serve: GATES FAILED\n");
    return 1;
  }
  std::printf("server_serve: all gates passed\n");
  return 0;
}
