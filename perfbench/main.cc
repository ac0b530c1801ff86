// xsact_perfbench: the measuring program of the repository benchmark.
//
//   xsact_perfbench gen --workload W --seed N --dir D
//   xsact_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//
// `gen` writes the workload's corpora to D. run.py runs it in a process
// of its own: a process that generated the corpus would load it into the
// generator's freed heap and under-report resident memory.
//
// `run` sets the workload up from D and prints, as its last line, one JSON
// object {correct, attempted, failed, metrics}. With --trace 0 it serves
// the mix through the real path (result cache off) for S seconds and
// reports the end-to-end metrics. With --trace 1 it reports the per-layer
// metrics instead: it calls each layer's public functions from this file
// and staged.cc, with a span around each call. Every answer, on either
// path, is checked byte for byte against the staged reference. NOTES.md
// says what each workload and metric is for.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "engine/router.h"
#include "engine/session.h"
#include "engine/snapshot.h"
#include "entity/category_index.h"
#include "entity/entity_identifier.h"
#include "search/inverted_index.h"
#include "server/http_client.h"
#include "server/server.h"
#include "staged.h"
#include "table/renderer.h"
#include "workloads.h"
#include "xml/io.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace engine = xsact::engine;
namespace server = xsact::server;
using Clock = std::chrono::steady_clock;
using xsact::Status;
using xsact::StatusOr;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xsact_perfbench: %s\n", what.c_str());
  std::exit(1);
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Resident bytes of this process now.
double ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) Die("cannot read statm");
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

rusage Usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

/// Peak resident bytes of this process so far (Linux reports KiB).
double PeakResidentBytes() {
  return static_cast<double>(Usage().ru_maxrss) * 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The JSON answer one request is checked against.
struct Reference {
  std::string json;
  int64_t total_dod = 0;
};

/// One workload set up and ready to serve: its snapshots behind a router
/// (result cache off) and, for HTTP workloads, a server on loopback.
class Serving {
 public:
  Serving(const Workload& w, const std::string& dir) : dir_(dir) {
    std::vector<engine::DatasetSpec> specs;
    for (const std::string& name : w.datasets) {
      StatusOr<engine::SnapshotPtr> snapshot =
          engine::CorpusSnapshot::FromFile(CorpusPath(name));
      if (!snapshot.ok()) {
        Die("load " + name + ": " + snapshot.status().ToString());
      }
      nodes_ += (*snapshot)->table().size();
      specs.push_back({name, std::move(*snapshot)});
    }
    engine::QueryServiceOptions options;
    options.num_threads = w.workers;
    options.enable_cache = false;
    StatusOr<engine::ServiceRouter> router =
        engine::ServiceRouter::Create(std::move(specs), options);
    if (!router.ok()) Die("router: " + router.status().ToString());
    router_.emplace(std::move(*router));
  }

  ~Serving() { StopServer(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  void StartServer() {
    server_ = std::make_unique<server::HttpServer>(&*router_);
    const Status started = server_->Start();
    if (!started.ok()) Die("server start: " + started.ToString());
    loop_ = std::thread([this] { server_->Run(); });
  }

  void StopServer() {
    if (!loop_.joinable()) return;
    server_->Stop();
    loop_.join();
  }

  std::string CorpusPath(const std::string& dataset) const {
    return dir_ + "/" + dataset + ".xml";
  }
  engine::ServiceRouter& router() { return *router_; }
  const engine::CorpusSnapshot& snapshot(const std::string& dataset) {
    return *router_->service(dataset)->snapshot();
  }
  server::HttpServer& http() { return *server_; }
  int port() const { return server_->port(); }
  size_t nodes() const { return nodes_; }

 private:
  std::string dir_;
  size_t nodes_ = 0;
  std::optional<engine::ServiceRouter> router_;
  std::unique_ptr<server::HttpServer> server_;
  std::thread loop_;
};

/// A router answer rendered for comparison.
struct Answer {
  bool ok = false;
  std::string json;
  int64_t total_dod = 0;
};

/// Submits `q` to the router and waits. `*us` is Submit→ready and
/// `*allocs` the process-wide allocations made meanwhile (when counted).
Answer Submit(engine::ServiceRouter& router, const MixQuery& q, double* us,
              uint64_t* allocs = nullptr) {
  const uint64_t allocs0 = ProcessAllocs();
  const Clock::time_point t0 = Clock::now();
  StatusOr<engine::OutcomePtr> outcome =
      router.Submit(q.dataset, q.query, q.options, q.max_results).get();
  *us = Micros(t0, Clock::now());
  if (allocs != nullptr) {
    // The worker may still be finishing the task after the future is
    // ready; let it, so its allocations land in this request's count.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    *allocs = ProcessAllocs() - allocs0;
  }
  Answer a;
  if (!outcome.ok()) return a;
  a.ok = true;
  a.json = xsact::table::RenderJson((*outcome)->table);
  a.total_dod = (*outcome)->total_dod;
  return a;
}

bool Matches(const Answer& a, const Reference& want) {
  return a.ok && a.total_dod == want.total_dod && a.json == want.json;
}

/// Sends `q` down the workload's serving path (HTTP when `client` is set)
/// and checks the answer. `*us` is the request's wall time.
bool Serve(Serving& s, server::HttpClient* client, const MixQuery& q,
           const Reference& want, double* us) {
  if (client == nullptr) return Matches(Submit(s.router(), q, us), want);
  const Clock::time_point t0 = Clock::now();
  StatusOr<server::ClientResponse> response = client->Get(q.url);
  *us = Micros(t0, Clock::now());
  return response.ok() && response->code == 200 && response->body == want.json;
}

/// The staged reference of every mix entry.
std::vector<Reference> References(Serving& s,
                                  const std::vector<MixQuery>& mix) {
  engine::QuerySession session;
  std::vector<Reference> refs;
  for (const MixQuery& q : mix) {
    StatusOr<StageSample> staged =
        RunStaged(s.snapshot(q.dataset), &session, q);
    if (!staged.ok()) {
      Die("staged \"" + q.query + "\": " + staged.status().ToString());
    }
    refs.push_back({std::move(staged->json), staged->total_dod});
  }
  return refs;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Context printed on the line before the result: sample counts and
  /// figures too unsteady to gate on (see NOTES.md).
  std::vector<Metric> details;

  void Check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void Print(const Result& r) {
  std::printf("{\"detail\": %s}\n", MetricsJson(r.details).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              MetricsJson(r.metrics).c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run.

/// Spaces the clients' draw seeds apart.
constexpr uint64_t kSeedStride = 1000003;

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<bool> ok;
  Clock::time_point last_end;
};

/// One timed set-up: load, route, listen (HTTP only) and one warm-up pass
/// over the mix. `*warm` receives the warm-up answers, in mix order.
std::unique_ptr<Serving> SetUp(const Workload& w, const std::string& dir,
                               const std::vector<MixQuery>& mix,
                               double* seconds, std::vector<Answer>* warm) {
  const Clock::time_point t0 = Clock::now();
  auto serving = std::make_unique<Serving>(w, dir);
  std::unique_ptr<server::HttpClient> client;
  if (w.http) {
    serving->StartServer();
    client = std::make_unique<server::HttpClient>(serving->port());
  }
  warm->clear();
  for (const MixQuery& q : mix) {
    Answer a;
    if (client != nullptr) {
      StatusOr<server::ClientResponse> r = client->Get(q.url);
      a.ok = r.ok() && r->code == 200;
      if (a.ok) a.json = std::move(r->body);
    } else {
      double us = 0;
      a = Submit(serving->router(), q, &us);
    }
    warm->push_back(std::move(a));
  }
  *seconds = Seconds(t0, Clock::now());
  return serving;
}

Result RunMeasured(const Workload& w, const std::vector<MixQuery>& mix,
                   const std::string& dir, uint64_t seed, int seconds) {
  Result result;
  // Checks the warm-up answers of one set-up against the references.
  // HTTP bodies carry total_dod inside the JSON.
  auto check_warm = [&](const std::vector<Answer>& warm,
                        const std::vector<Reference>& refs) {
    for (size_t k = 0; k < warm.size(); ++k) {
      result.Check(warm[k].ok && warm[k].json == refs[k].json &&
                   (w.http || warm[k].total_dod == refs[k].total_dod));
    }
  };

  // The first set-up serves the window, from a clean heap: a snapshot
  // loaded into the freed memory of earlier set-ups is scattered over it,
  // differently in each run.
  const double resident_before = ResidentBytes();
  std::vector<double> setup_s(1);
  std::vector<Answer> warm;
  std::unique_ptr<Serving> serving = SetUp(w, dir, mix, &setup_s[0], &warm);
  const double resident_added = ResidentBytes() - resident_before;
  const std::vector<Reference> refs = References(*serving, mix);
  check_warm(warm, refs);

  // The measured window: closed-loop clients drawing from the mix, cut
  // into `w.reload_rounds` slices. After each slice the clients pause and
  // `reload_dataset` is reloaded with no traffic, so the reloads sample the
  // host over the whole run rather than over one stretch of it.
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  std::vector<std::unique_ptr<server::HttpClient>> clients;
  std::vector<xsact::Rng> rngs;
  for (int c = 0; c < w.clients; ++c) {
    clients.push_back(
        w.http ? std::make_unique<server::HttpClient>(serving->port())
               : nullptr);
    if (w.http && !clients.back()->Connect().ok()) Die("client connect");
    rngs.emplace_back(seed * kSeedStride + static_cast<uint64_t>(c));
  }
  const std::string reload_path = serving->CorpusPath(w.reload_dataset);
  std::vector<double> reload_s;
  double window_s = 0;
  double peak_resident = 0;
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(seconds) /
                                    w.reload_rounds));
  for (int round = 0; round < w.reload_rounds; ++round) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + slice;
    std::vector<std::thread> threads;
    for (int c = 0; c < w.clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<size_t>(c)];
        xsact::Rng& rng = rngs[static_cast<size_t>(c)];
        // Uniform draws rather than a fixed cycle: with a fixed cycle the
        // closed loop phase-locks to the server's poll tick, and the tail
        // then depends on which order the seed picked, not on the system.
        while (Clock::now() < end) {
          const size_t i = rng.Below(mix.size());
          double us = 0;
          log.ok.push_back(Serve(*serving,
                                 clients[static_cast<size_t>(c)].get(),
                                 mix[i], refs[i], &us));
          log.latency_ms.push_back(us / 1000.0);
          log.last_end = Clock::now();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Clock::time_point last_end = start;
    for (const ClientLog& log : logs) {
      last_end = std::max(last_end, log.last_end);
    }
    window_s += Seconds(start, last_end);
    // Taken before the first reload: each reload leaves the old snapshot's
    // memory behind in whichever malloc arena its thread used, so a later
    // peak says more about arena luck than about the corpus.
    if (round == 0) peak_resident = PeakResidentBytes();
    const int reloads = w.reloads / w.reload_rounds +
                        (round < w.reloads % w.reload_rounds ? 1 : 0);
    for (int i = 0; i < reloads; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Status status =
          serving->router().ReloadCorpus(w.reload_dataset, reload_path).get();
      reload_s.push_back(Seconds(t0, Clock::now()));
      result.Check(status.ok());
    }
  }

  std::vector<double> latency_ms;
  for (const ClientLog& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    for (bool ok : log.ok) result.Check(ok);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(reload_s.begin(), reload_s.end());

  // One more checked pass, over the reloaded corpus.
  for (size_t i = 0; i < mix.size(); ++i) {
    double us = 0;
    result.Check(Serve(*serving, clients.front().get(), mix[i], refs[i], &us));
  }
  const engine::RouterStats stats = serving->router().stats();
  for (const engine::DatasetStats& d : stats.datasets) {
    result.Check(d.cache.hits == 0);
  }
  const double nodes = static_cast<double>(serving->nodes());
  clients.clear();
  serving.reset();

  // The other set-ups, each checked like the first.
  for (int i = 1; i < w.setups; ++i) {
    setup_s.push_back(0);
    SetUp(w, dir, mix, &setup_s.back(), &warm).reset();
    check_warm(warm, refs);
  }

  result.Detail("requests", static_cast<double>(latency_ms.size()), "count");
  result.Detail("reloads", static_cast<double>(reload_s.size()), "count");
  result.Detail("nodes", nodes, "count");
  // The tail is reported but not gated: the 2 ms poll tick splits
  // http_light's latencies into two modes, and load on the host moves
  // requests between them, so p90 and p99 jump between runs.
  result.Detail("latency_p90_ms", Percentile(latency_ms, 90), "ms");
  result.Detail("latency_p99_ms", Percentile(latency_ms, 99), "ms");
  result.Detail("reload_p50_s", Percentile(reload_s, 50), "s");
  result.Add("latency_p50_ms", Percentile(latency_ms, 50), "ms");
  result.Add("throughput_qps",
             static_cast<double>(latency_ms.size()) / window_s, "1/s");
  result.Add("success_rate",
             static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");
  result.Add("setup_s", Median(setup_s), "s");
  // The 10th percentile: interference from the host only ever adds time,
  // and how often it strikes drifts from run to run. That moves the median
  // of the same code more than the fast end (NOTES.md has the spreads).
  result.Add("reload_s", Percentile(reload_s, 10), "s");
  result.Add("rss_per_node_B", resident_added / nodes, "B");
  result.Add("peak_rss_per_node_B", peak_resident / nodes, "B");
  return result;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer run.

/// Build-side spans of one load of every corpus of the workload.
struct BuildSample {
  double parse_ms = 0;
  double schema_ms = 0;
  double index_ms = 0;
  double category_ms = 0;
  double index_bytes = 0;
  double resident_added = 0;
  double minor_faults = 0;
  double nodes = 0;
};

/// Loads every corpus layer by layer, as search::CorpusIndex does.
BuildSample StagedBuild(const Workload& w, const std::string& dir) {
  BuildSample b;
  for (const std::string& name : w.datasets) {
    StatusOr<std::string> text =
        xsact::xml::ReadFileToString(dir + "/" + name + ".xml");
    if (!text.ok()) Die(text.status().ToString());
    const double resident0 = ResidentBytes();
    const long faults0 = Usage().ru_minflt;
    Clock::time_point t0 = Clock::now();
    StatusOr<xsact::xml::ParsedCorpus> corpus =
        xsact::xml::ParseCorpus(std::move(*text));
    b.parse_ms += Micros(t0, Clock::now()) / 1000.0;
    if (!corpus.ok()) Die(corpus.status().ToString());
    b.minor_faults += static_cast<double>(Usage().ru_minflt - faults0);
    b.resident_added += ResidentBytes() - resident0;
    b.nodes += static_cast<double>(corpus->table.size());

    t0 = Clock::now();
    const xsact::entity::EntitySchema schema =
        xsact::entity::InferSchema(corpus->doc);
    b.schema_ms += Micros(t0, Clock::now()) / 1000.0;
    t0 = Clock::now();
    const xsact::search::InvertedIndex index =
        xsact::search::InvertedIndex::Build(corpus->table);
    b.index_ms += Micros(t0, Clock::now()) / 1000.0;
    t0 = Clock::now();
    const xsact::entity::DocumentCategoryIndex categories(corpus->table,
                                                          schema);
    b.category_ms += Micros(t0, Clock::now()) / 1000.0;
    b.index_bytes += static_cast<double>(index.CompressedSizeBytes());
  }
  return b;
}

Result RunTraced(const Workload& w, const std::vector<MixQuery>& mix,
                 const std::string& dir) {
  Result result;

  // Build side first, while the heap is clean (resident bytes and faults
  // are taken from the first load only).
  std::vector<BuildSample> builds;
  const int build_reps = w.name == "engine_large" ? 2 : 5;
  for (int i = 0; i < build_reps; ++i) builds.push_back(StagedBuild(w, dir));
  const BuildSample& first = builds.front();

  Serving serving(w, dir);
  std::vector<double> validate_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (const std::string& name : w.datasets) {
      result.Check(serving.snapshot(name).Validate().ok());
    }
    validate_ms.push_back(Micros(t0, Clock::now()) / 1000.0);
  }

  // Phase A: each request staged, then through the router, interleaved so
  // both see the same machine state. One unmeasured pass warms sessions.
  // No other thread runs while the router's allocations are counted.
  const int passes = 30;
  engine::QuerySession session;
  std::vector<StageSample> samples;               // measured passes
  std::vector<std::vector<double>> staged_us(mix.size());
  std::vector<std::vector<double>> router_us(mix.size());
  // Fewest allocations per request over the passes: with several workers
  // per dataset, a request that lands on a worker whose session has not
  // yet seen it allocates more, and which worker it lands on is luck.
  std::vector<uint64_t> router_allocs(mix.size(), UINT64_MAX);
  for (int pass = 0; pass <= passes; ++pass) {
    for (size_t i = 0; i < mix.size(); ++i) {
      // Whichever runs second finds the request's data in cache, so the
      // two take turns going first.
      auto staged_call = [&] {
        return RunStaged(serving.snapshot(mix[i].dataset), &session, mix[i]);
      };
      std::optional<StatusOr<StageSample>> staged;
      if (pass % 2 == 0) staged.emplace(staged_call());
      SetProcessAllocCounting(true);
      double us = 0;
      uint64_t allocs = 0;
      const Answer routed = Submit(serving.router(), mix[i], &us, &allocs);
      SetProcessAllocCounting(false);
      if (pass % 2 == 1) staged.emplace(staged_call());
      if (!staged->ok()) Die("staged: " + staged->status().ToString());
      result.Check(Matches(routed, {(*staged)->json, (*staged)->total_dod}));
      if (pass == 0) continue;
      router_allocs[i] = std::min(router_allocs[i], allocs);
      staged_us[i].push_back((*staged)->total_us());
      router_us[i].push_back(us);
      samples.push_back(std::move(**staged));
    }
  }
  double engine_allocs = 0;
  for (uint64_t a : router_allocs) engine_allocs += static_cast<double>(a);

  // Phase B: the same requests over HTTP, interleaved with the router.
  serving.StartServer();
  std::vector<std::vector<double>> http_us(mix.size());
  std::vector<std::vector<double>> router_b_us(mix.size());
  {
    server::HttpClient client(serving.port());
    const std::vector<Reference> refs = References(serving, mix);
    for (int pass = 0; pass <= passes; ++pass) {
      for (size_t i = 0; i < mix.size(); ++i) {
        for (int leg = 0; leg < 2; ++leg) {  // taking turns, as in phase A
          const bool http = (leg + pass) % 2 == 0;
          double us = 0;
          result.Check(Serve(serving, http ? &client : nullptr, mix[i],
                             refs[i], &us));
          if (pass > 0) (http ? http_us : router_b_us)[i].push_back(us);
        }
      }
    }
  }
  serving.StopServer();
  const server::ServerStats server_stats = serving.http().stats();
  const engine::RouterStats router_stats = serving.router().stats();
  uint64_t admitted = 0;
  uint64_t cache_hits = 0;
  for (const engine::DatasetStats& d : router_stats.datasets) {
    admitted += d.admission.admitted;
    cache_hits += d.cache.hits;
  }
  result.Check(cache_hits == 0);
  result.Detail("passes", passes, "count");
  result.Detail("nodes", first.nodes, "count");

  // Per-request medians of the staged spans; counts are per request over
  // the last pass, where they repeat exactly.
  std::vector<double> dispatch_us;
  std::vector<double> overhead_us;
  for (size_t i = 0; i < mix.size(); ++i) {
    dispatch_us.push_back(Median(router_us[i]) - Median(staged_us[i]));
    overhead_us.push_back(Median(http_us[i]) - Median(router_b_us[i]));
  }
  const std::vector<StageSample> last(
      samples.end() - static_cast<long>(mix.size()), samples.end());
  auto per_request = [&](uint64_t StageSample::*field) {
    double sum = 0;
    for (const StageSample& s : last) sum += static_cast<double>(s.*field);
    return sum / static_cast<double>(last.size());
  };
  auto build_median = [&](double BuildSample::*field) {
    std::vector<double> v;
    for (const BuildSample& b : builds) v.push_back(b.*field);
    return Median(v);
  };
  auto median_us = [&](double StageSample::*field) {
    std::vector<double> v;
    for (const StageSample& s : samples) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> search_us;
  for (const StageSample& s : samples) search_us.push_back(s.search_us);
  std::sort(search_us.begin(), search_us.end());
  double total_dod = 0;
  double json_bytes = 0;
  for (const StageSample& s : last) {
    total_dod += static_cast<double>(s.total_dod);
    json_bytes += static_cast<double>(s.json.size());
  }

  result.Add("xml.parse_ms", build_median(&BuildSample::parse_ms), "ms");
  result.Add("xml.rss_per_node_B", first.resident_added / first.nodes, "B");
  result.Add("xml.minor_faults", first.minor_faults, "count");
  result.Add("entity.schema_ms", build_median(&BuildSample::schema_ms), "ms");
  result.Add("entity.category_index_ms",
             build_median(&BuildSample::category_ms), "ms");
  result.Add("search.index_build_ms", build_median(&BuildSample::index_ms),
             "ms");
  result.Add("search.index_bytes", first.index_bytes, "B");
  result.Add("search.eval_p50_us", Percentile(search_us, 50), "us");
  result.Add("search.eval_p99_us", Percentile(search_us, 99), "us");
  result.Add("search.postings", per_request(&StageSample::postings), "count");
  result.Add("search.results", per_request(&StageSample::results), "count");
  result.Add("search.results_per_kposting",
             1000.0 * per_request(&StageSample::results) /
                 per_request(&StageSample::postings),
             "results/kposting");
  result.Add("search.allocs", per_request(&StageSample::search_allocs),
             "count");
  result.Add("feature.extract_us", median_us(&StageSample::extract_us), "us");
  result.Add("feature.nodes_swept", per_request(&StageSample::nodes_swept),
             "count");
  result.Add("feature.allocs", per_request(&StageSample::feature_allocs),
             "count");
  result.Add("core.instance_build_us",
             median_us(&StageSample::instance_build_us), "us");
  result.Add("core.select_us", median_us(&StageSample::select_us), "us");
  result.Add("core.total_dod", total_dod, "count");
  result.Add("core.allocs", per_request(&StageSample::core_allocs), "count");
  result.Add("table.build_us", median_us(&StageSample::table_build_us), "us");
  result.Add("table.render_us", median_us(&StageSample::render_us), "us");
  result.Add("table.json_bytes", json_bytes / static_cast<double>(last.size()),
             "B");
  result.Add("table.allocs", per_request(&StageSample::table_allocs), "count");
  result.Add("engine.validate_ms", Median(validate_ms), "ms");
  result.Add("engine.dispatch_us", Median(dispatch_us), "us");
  result.Add("engine.admitted", static_cast<double>(admitted), "count");
  result.Add("engine.shed", static_cast<double>(router_stats.total_shed()),
             "count");
  result.Add("engine.deadline_exceeded",
             static_cast<double>(router_stats.total_deadline_exceeded()),
             "count");
  result.Add("engine.cache_hits", static_cast<double>(cache_hits), "count");
  result.Add("engine.allocs", engine_allocs / static_cast<double>(mix.size()),
             "count");
  result.Add("server.overhead_us", Median(overhead_us), "us");
  result.Add("server.requests", static_cast<double>(server_stats.requests),
             "count");
  result.Add("server.responses_error",
             static_cast<double>(server_stats.responses_error), "count");
  result.Add("server.timeouts", static_cast<double>(server_stats.timeouts),
             "count");
  return result;
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string dir;
};

Args Parse(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: xsact_perfbench gen|run --workload W --seed N --dir D "
        "[--seconds S --trace 0|1]");
  }
  Args a;
  a.mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto get = [&](const std::string& flag) {
    auto it = flags.find(flag);
    if (it == flags.end()) Die("missing " + flag);
    return it->second;
  };
  a.workload = get("--workload");
  a.seed = std::strtoull(get("--seed").c_str(), nullptr, 10);
  a.dir = get("--dir");
  if (a.mode == "run") {
    a.seconds = std::atoi(get("--seconds").c_str());
    a.trace = std::atoi(get("--trace").c_str());
    if (a.seconds < 1) Die("--seconds must be at least 1");
  } else if (a.mode != "gen") {
    Die("unknown mode " + a.mode);
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload " + args.workload);
  if (args.mode == "gen") {
    const xsact::Status status = GenerateCorpora(*w, args.seed, args.dir);
    if (!status.ok()) Die(status.ToString());
    return 0;
  }
  const std::vector<MixQuery> mix = ShuffledMix(*w, args.seed);
  const Result result = args.trace != 0 ? RunTraced(*w, mix, args.dir)
                                        : RunMeasured(*w, mix, args.dir,
                                                      args.seed, args.seconds);
  Print(result);
  return result.correct ? 0 : 1;
}
