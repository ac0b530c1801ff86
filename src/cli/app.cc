#include "cli/app.h"

#include <sys/stat.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/shutdown_signal.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/multi_swap.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "engine/query_service.h"
#include "engine/router.h"
#include "server/server.h"
#include "table/explainer.h"
#include "table/renderer.h"

namespace xsact::cli {

namespace {

std::string Render(const table::ComparisonTable& table, OutputFormat format) {
  switch (format) {
    case OutputFormat::kAscii:
      return table::RenderAscii(table);
    case OutputFormat::kMarkdown:
      return table::RenderMarkdown(table);
    case OutputFormat::kHtml:
      return table::RenderHtml(table);
    case OutputFormat::kCsv:
      return table::RenderCsv(table);
    case OutputFormat::kJson:
      return table::RenderJson(table) + "\n";
  }
  return "";
}

/// The CompareOptions every serve path (sync, load-gen, watch, router)
/// derives from the parsed command line.
engine::CompareOptions CompareOptionsFor(const CliOptions& options) {
  engine::CompareOptions compare;
  compare.algorithm = options.algorithm;
  compare.selector.size_bound = options.bound;
  compare.diff_threshold = options.threshold;
  compare.lift_results_to = options.lift;
  compare.max_compared = options.max_results;
  return compare;
}

/// QueryService knobs shared by the load-gen, watch and router paths.
engine::QueryServiceOptions ServiceOptionsFor(const CliOptions& options) {
  engine::QueryServiceOptions service_options;
  service_options.num_threads = options.threads > 0 ? options.threads : 1;
  service_options.enable_cache = options.cache;
  service_options.max_queue = static_cast<size_t>(options.max_queue);
  return service_options;
}

/// Fresh per-request deadline from --deadline-ms (none when 0).
engine::Deadline DeadlineFor(const CliOptions& options) {
  if (options.deadline_ms <= 0) return engine::kNoDeadline;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(options.deadline_ms);
}

/// Renders a served outcome exactly like the synchronous path: the
/// --weights re-selection (recomputed into locals — the shared outcome
/// is immutable), the table in the requested format, --explain and
/// --show-dfs output. Shared by the load-gen, watch and router paths.
void RenderServedOutcome(const engine::OutcomePtr& outcome,
                         const CliOptions& options, std::ostream& out) {
  const std::vector<core::Dfs>* dfss = &outcome->dfss;
  const table::ComparisonTable* table = &outcome->table;
  std::vector<core::Dfs> reselected_dfss;
  table::ComparisonTable reselected_table;
  if (options.algorithm == core::SelectorKind::kWeightedMultiSwap &&
      options.weight_scheme != core::WeightScheme::kInterestingness) {
    core::WeightedMultiSwapOptimizer selector(options.weight_scheme);
    core::SelectorOptions sopts;
    sopts.size_bound = options.bound;
    reselected_dfss = selector.Select(outcome->instance, sopts);
    reselected_table =
        table::BuildComparisonTable(outcome->instance, reselected_dfss);
    dfss = &reselected_dfss;
    table = &reselected_table;
  }

  out << Render(*table, options.format);
  if (options.explain) {
    const auto explanations =
        table::ExplainDifferences(outcome->instance, *dfss);
    out << "\nkey differences:\n"
        << table::RenderExplanations(explanations);
  }
  if (options.show_dfs) {
    out << "\nselected DFSs (" << core::SelectorKindName(options.algorithm)
        << "):\n";
    for (int i = 0; i < outcome->instance.num_results(); ++i) {
      out << "  " << table->headers[static_cast<size_t>(i)] << ": "
          << (*dfss)[static_cast<size_t>(i)].ToString(outcome->instance)
          << "\n";
    }
  }
}

/// Load-generation path (--threads / --repeat / --cache): serves the
/// query through a QueryService pool, checks that every repetition
/// produced an identical table, and prints throughput + cache counters
/// before rendering the (shared) outcome once. Requests shed by the
/// bounded queue or expired past --deadline-ms are counted, not fatal.
int RunLoadGen(const CliOptions& options, const engine::Xsact& xsact,
               const engine::CompareOptions& compare, std::ostream& out,
               std::ostream& err) {
  engine::QueryService service(xsact.snapshot(), ServiceOptionsFor(options));

  const std::vector<std::string> queries(
      static_cast<size_t>(options.repeat), options.query);
  Timer timer;
  // Each request gets its own --deadline-ms budget measured from ITS
  // submission (same semantics as the router path), not one absolute
  // deadline shared by the whole batch.
  std::vector<std::future<StatusOr<engine::OutcomePtr>>> futures;
  futures.reserve(queries.size());
  for (const std::string& query : queries) {
    futures.push_back(
        service.Submit(query, compare, 0, DeadlineFor(options)));
  }
  engine::OutcomePtr first;
  size_t ok_count = 0;
  for (auto& future : futures) {
    StatusOr<engine::OutcomePtr> outcome = future.get();
    if (!outcome.ok()) {
      const StatusCode code = outcome.status().code();
      if (code == StatusCode::kResourceExhausted ||
          code == StatusCode::kDeadlineExceeded) {
        continue;  // admission rejections are expected under overload
      }
      err << outcome.status() << "\n";
      return 1;
    }
    ++ok_count;
    if (first == nullptr) {
      first = *outcome;
    } else if ((*outcome)->total_dod != first->total_dod ||
               (*outcome)->table.rows.size() != first->table.rows.size()) {
      err << "outcome diverged across repetitions\n";
      return 1;
    }
  }
  const double seconds = timer.ElapsedSeconds();
  out << "served " << queries.size() << " queries on "
      << service.num_threads() << " thread(s) in "
      << FormatDouble(seconds * 1e3, 1) << " ms ("
      << FormatDouble(seconds > 0 ? queries.size() / seconds : 0, 0)
      << " qps)\n";
  if (options.cache) {
    const engine::CacheStats stats = service.cache_stats();
    out << "cache: " << stats.hits << " hits, " << stats.misses
        << " misses, " << stats.evictions << " evictions, " << stats.entries
        << " entries\n";
  }
  if (options.max_queue > 0 || options.deadline_ms > 0) {
    const engine::AdmissionStats stats = service.admission_stats();
    out << "admission: " << ok_count << " ok, " << stats.shed << " shed, "
        << stats.deadline_exceeded << " deadline-exceeded\n";
  }
  if (first == nullptr) {
    err << "no request survived admission control\n";
    return 1;
  }

  RenderServedOutcome(first, options, out);
  return 0;
}

/// Serves one query through the service and renders the outcome (the
/// --watch loop's unit of work). Returns false on serve failure.
bool ServeAndRender(engine::QueryService& service, const CliOptions& options,
                    const engine::CompareOptions& compare, std::ostream& out,
                    std::ostream& err) {
  StatusOr<engine::OutcomePtr> outcome =
      service.Submit(options.query, compare, 0, DeadlineFor(options)).get();
  if (!outcome.ok()) {
    err << outcome.status() << "\n";
    return false;
  }
  RenderServedOutcome(*outcome, options, out);
  return true;
}

/// Nanosecond mtime: whole-second st_mtime would miss a rewrite landing
/// in the same second as the previous one.
int64_t MtimeNs(const struct stat& st) {
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         st.st_mtim.tv_nsec;
}

enum class ReloadResult { kReloaded, kFailed, kGone };

/// One torn-read-safe reload round. The poll loop stats the file BEFORE
/// the load starts (`observed_mtime`); a writer may still be mid-rewrite
/// at that point, so a successful parse can be of a truncated-but-well-
/// formed corpus. Re-stat after the load: if the mtime moved while the
/// load ran, wait out the poll interval and reload again until a load
/// completes with the mtime stable around it (bounded retries so a
/// continuously-written file can't pin the watcher re-parsing forever).
/// On success *last_mtime advances to the stable mtime; on a failed or
/// never-stable reload it is deliberately left untouched so the NEXT
/// poll retries instead of wedging on the torn content forever.
template <typename ReloadFn>
ReloadResult ReloadStable(const std::string& path, int64_t observed_mtime,
                          int64_t* last_mtime, const ReloadFn& reload,
                          std::ostream& err) {
  constexpr int kMaxRetries = 5;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    if (attempt > 0) {
      // The file was rewritten while we loaded: let the writer finish
      // at poll cadence instead of re-parsing in a tight loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    const Status reloaded = reload();
    if (!reloaded.ok()) {
      err << "reload failed (still serving previous snapshot): " << reloaded
          << "\n";
      // Distinguish torn from settled-but-invalid content: a writer
      // mid-rewrite moves the mtime again (the next poll retries because
      // *last_mtime stays behind), while a file that FAILED to parse and
      // whose mtime is already stable is genuinely malformed — advance
      // *last_mtime so it is reported once, not re-parsed every poll
      // until the next real change.
      struct stat failed_st;
      if (::stat(path.c_str(), &failed_st) == 0 &&
          MtimeNs(failed_st) == observed_mtime) {
        *last_mtime = observed_mtime;
      }
      return ReloadResult::kFailed;
    }
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      err << "corpus file disappeared; stopping watch\n";
      return ReloadResult::kGone;
    }
    if (MtimeNs(st) == observed_mtime) {
      *last_mtime = observed_mtime;
      return ReloadResult::kReloaded;
    }
    observed_mtime = MtimeNs(st);  // rewritten during the load: go again
  }
  err << "corpus file kept changing across " << kMaxRetries
      << " reloads; will retry on the next poll\n";
  return ReloadResult::kFailed;
}

/// --watch: serve once, then poll the corpus file's mtime and hot-swap
/// the snapshot (QueryService::ReloadCorpus) whenever it changes.
/// In-flight queries finish on their admitted snapshot; new submissions
/// see the fresh corpus. Exits after --max-reloads reloads (0 = forever)
/// or when the file disappears.
int RunWatch(const CliOptions& options, const engine::Xsact& xsact,
             const engine::CompareOptions& compare, std::ostream& out,
             std::ostream& err) {
  engine::QueryService service(xsact.snapshot(), ServiceOptionsFor(options));

  out << "serving (epoch " << service.snapshot_epoch() << "):\n";
  if (!ServeAndRender(service, options, compare, out, err)) return 1;

  struct stat st;
  if (::stat(options.dataset.c_str(), &st) != 0) {
    err << "cannot stat '" << options.dataset << "'\n";
    return 1;
  }
  int64_t last_mtime = MtimeNs(st);
  int reloads = 0;
  // SIGINT/SIGTERM must end the poll loop cleanly (still-serving
  // snapshot intact, exit code 0), not kill the process mid-reload.
  InstallShutdownSignalHandlers();
  out << "watching " << options.dataset << " for changes"
      << (options.max_reloads > 0
              ? " (" + std::to_string(options.max_reloads) + " reloads max)"
              : std::string())
      << "...\n";
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (ShutdownRequested()) {
      out << "shutdown requested; stopping watch\n";
      return 0;
    }
    if (::stat(options.dataset.c_str(), &st) != 0) {
      err << "corpus file disappeared; stopping watch\n";
      return 1;
    }
    if (MtimeNs(st) == last_mtime) continue;
    const ReloadResult result = ReloadStable(
        options.dataset, MtimeNs(st), &last_mtime,
        [&] { return service.ReloadCorpus(options.dataset).get(); }, err);
    if (result == ReloadResult::kGone) return 1;
    if (result == ReloadResult::kFailed) continue;  // next poll retries
    ++reloads;
    out << "reloaded (epoch " << service.snapshot_epoch() << "):\n";
    if (!ServeAndRender(service, options, compare, out, err)) return 1;
    if (options.max_reloads > 0 && reloads >= options.max_reloads) break;
  }
  return 0;
}

/// Serves one dataset through the router (--repeat copies, each with a
/// fresh --deadline-ms deadline) and renders the first surviving
/// outcome under a dataset header. Shed / deadline-exceeded requests are
/// expected under overload and only fail the run when NOTHING survives.
bool ServeDataset(engine::ServiceRouter& router, const std::string& name,
                  const CliOptions& options,
                  const engine::CompareOptions& compare, std::ostream& out,
                  std::ostream& err) {
  const size_t repeat = static_cast<size_t>(std::max(options.repeat, 1));
  std::vector<std::future<StatusOr<engine::OutcomePtr>>> futures;
  futures.reserve(repeat);
  for (size_t r = 0; r < repeat; ++r) {
    futures.push_back(router.Submit(name, options.query, compare, 0,
                                    DeadlineFor(options)));
  }
  engine::OutcomePtr first;
  size_t shed = 0;
  size_t expired = 0;
  for (auto& future : futures) {
    StatusOr<engine::OutcomePtr> outcome = future.get();
    if (!outcome.ok()) {
      const StatusCode code = outcome.status().code();
      if (code == StatusCode::kResourceExhausted) {
        ++shed;
        continue;
      }
      if (code == StatusCode::kDeadlineExceeded) {
        ++expired;
        continue;
      }
      err << "dataset '" << name << "': " << outcome.status() << "\n";
      return false;
    }
    if (first == nullptr) {
      first = *outcome;
    } else if ((*outcome)->total_dod != first->total_dod ||
               (*outcome)->table.rows.size() != first->table.rows.size()) {
      err << "dataset '" << name
          << "': outcome diverged across repetitions\n";
      return false;
    }
  }
  if (first == nullptr) {
    err << "dataset '" << name << "': all " << repeat
        << " request(s) rejected by admission control (" << shed
        << " shed, " << expired << " deadline-exceeded)\n";
    return false;
  }
  out << "=== " << name << " (epoch "
      << router.service(name)->snapshot_epoch() << ") ===\n";
  RenderServedOutcome(first, options, out);
  return true;
}

/// Per-dataset observability block (cache + admission counters).
void PrintRouterStats(const engine::ServiceRouter& router,
                      std::ostream& out) {
  out << "router stats:\n";
  for (const engine::DatasetStats& d : router.stats().datasets) {
    out << "  " << d.dataset << ": epoch " << d.epoch << ", cache "
        << d.cache.hits << " hits / " << d.cache.misses << " misses, queue "
        << d.admission.queue_depth << ", shed " << d.admission.shed
        << ", deadline-exceeded " << d.admission.deadline_exceeded;
    if (d.health.healthy) {
      out << ", healthy";
    } else {
      out << ", DEGRADED (serving last-known-good; " << d.health.last_error
          << ")";
    }
    if (d.health.reload_attempts > 0) {
      out << ", reloads " << d.health.reload_successes << " ok / "
          << d.health.reload_failures << " failed";
    }
    out << "\n";
  }
}

/// Router --watch: poll every file-backed dataset's mtime; a change
/// hot-swaps ONLY that dataset's service (other corpora keep serving
/// their snapshots untouched). Uses the same torn-read-safe reload
/// protocol as the single-dataset watch. --max-reloads counts reloads
/// across all datasets.
int RunRouterWatch(engine::ServiceRouter& router, const CliOptions& options,
                   const engine::CompareOptions& compare, std::ostream& out,
                   std::ostream& err) {
  struct WatchedDataset {
    std::string name;
    std::string path;
    int64_t last_mtime;
  };
  std::vector<WatchedDataset> watched;
  for (const DatasetBinding& binding : options.datasets) {
    if (!IsFileDatasetSource(binding.source)) continue;
    struct stat st;
    if (::stat(binding.source.c_str(), &st) != 0) {
      err << "cannot stat '" << binding.source << "'\n";
      return 1;
    }
    watched.push_back({binding.name, binding.source, MtimeNs(st)});
  }
  // SIGINT/SIGTERM end the poll loop cleanly between reload rounds.
  InstallShutdownSignalHandlers();
  out << "watching " << watched.size() << " dataset file(s) for changes"
      << (options.max_reloads > 0
              ? " (" + std::to_string(options.max_reloads) + " reloads max)"
              : std::string())
      << "...\n";
  int reloads = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (ShutdownRequested()) {
      out << "shutdown requested; stopping watch\n";
      return 0;
    }
    for (WatchedDataset& w : watched) {
      struct stat st;
      if (::stat(w.path.c_str(), &st) != 0) {
        err << "corpus file '" << w.path << "' disappeared; stopping watch\n";
        return 1;
      }
      if (MtimeNs(st) == w.last_mtime) continue;
      const ReloadResult result = ReloadStable(
          w.path, MtimeNs(st), &w.last_mtime,
          [&] { return router.ReloadCorpus(w.name, w.path).get(); }, err);
      if (result == ReloadResult::kGone) return 1;
      if (result == ReloadResult::kFailed) continue;  // next poll retries
      ++reloads;
      out << "reloaded " << w.name << " (epoch "
          << router.service(w.name)->snapshot_epoch() << "):\n";
      if (!ServeDataset(router, w.name, options, compare, out, err)) {
        return 1;
      }
      if (options.max_reloads > 0 && reloads >= options.max_reloads) {
        return 0;
      }
    }
  }
}

/// Router mode (two or more --dataset bindings): one ServiceRouter owns
/// a QueryService per corpus; the query is served on every dataset, the
/// per-dataset admission/cache counters are printed, and --watch routes
/// file reloads to the owning service.
int RunRouter(const CliOptions& options, std::ostream& out,
              std::ostream& err) {
  std::vector<engine::DatasetSpec> specs;
  specs.reserve(options.datasets.size());
  for (const DatasetBinding& binding : options.datasets) {
    StatusOr<engine::SnapshotPtr> snapshot =
        BuildSnapshot(binding.source, options.seed);
    if (!snapshot.ok()) {
      err << "dataset '" << binding.name << "': " << snapshot.status()
          << "\n";
      return 1;
    }
    specs.push_back({binding.name, std::move(*snapshot)});
  }
  StatusOr<engine::ServiceRouter> router =
      engine::ServiceRouter::Create(std::move(specs),
                                    ServiceOptionsFor(options));
  if (!router.ok()) {
    err << router.status() << "\n";
    return 1;
  }

  const engine::CompareOptions compare = CompareOptionsFor(options);
  bool ok = true;
  for (const DatasetBinding& binding : options.datasets) {
    ok = ServeDataset(*router, binding.name, options, compare, out, err) &&
         ok;
  }
  PrintRouterStats(*router, out);
  if (!ok) return 1;
  if (options.watch) {
    return RunRouterWatch(*router, options, compare, out, err);
  }
  return 0;
}

/// --serve: the HTTP front-end. Builds one ServiceRouter over the
/// --dataset bindings (a single unnamed dataset serves under its source
/// name), installs SIGTERM/SIGINT handlers wired to the server's drain
/// path, and runs the event loop on this thread until a shutdown signal
/// (or programmatic RequestShutdown) completes a graceful drain.
int RunServe(const CliOptions& options, std::ostream& out,
             std::ostream& err) {
  std::vector<DatasetBinding> bindings = options.datasets;
  if (bindings.empty()) {
    bindings.push_back({options.dataset, options.dataset});
  }
  std::vector<engine::DatasetSpec> specs;
  specs.reserve(bindings.size());
  for (const DatasetBinding& binding : bindings) {
    StatusOr<engine::SnapshotPtr> snapshot =
        BuildSnapshot(binding.source, options.seed);
    if (!snapshot.ok()) {
      err << "dataset '" << binding.name << "': " << snapshot.status()
          << "\n";
      return 1;
    }
    specs.push_back({binding.name, std::move(*snapshot)});
  }
  StatusOr<engine::ServiceRouter> router = engine::ServiceRouter::Create(
      std::move(specs), ServiceOptionsFor(options));
  if (!router.ok()) {
    err << router.status() << "\n";
    return 1;
  }

  InstallShutdownSignalHandlers();
  server::ServerOptions server_options;
  server_options.port = options.port;
  server_options.drain_budget_ms = options.drain_ms;
  server_options.default_deadline_ms = options.deadline_ms;
  server_options.wakeup_fd = ShutdownWakeupFd();
  server::HttpServer server(&*router, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    err << started << "\n";
    return 1;
  }
  out << "serving " << router->num_datasets()
      << " dataset(s) on http://127.0.0.1:" << server.port()
      << " (drain budget " << options.drain_ms << " ms)" << std::endl;
  if (ShutdownRequested()) server.Stop();  // signal won the startup race
  server.Run();

  const server::ServerStats stats = server.stats();
  out << "drained: " << stats.requests << " request(s) served ("
      << stats.responses_ok << " ok, " << stats.responses_error
      << " error), " << stats.accepted << " connection(s), "
      << stats.timeouts << " timeout(s), " << stats.disconnects
      << " disconnect(s)\n";
  PrintRouterStats(*router, out);
  return 0;
}

}  // namespace

StatusOr<engine::SnapshotPtr> BuildSnapshot(const std::string& source,
                                            uint64_t seed) {
  if (source == "products") {
    data::ProductReviewsConfig config;
    if (seed != 0) config.seed = seed;
    return engine::CorpusSnapshot::Build(
        data::GenerateProductReviews(config));
  }
  if (source == "outdoor") {
    data::OutdoorRetailerConfig config;
    if (seed != 0) config.seed = seed;
    return engine::CorpusSnapshot::Build(
        data::GenerateOutdoorRetailer(config));
  }
  if (source == "movies") {
    data::MoviesConfig config;
    if (seed != 0) config.seed = seed;
    return engine::CorpusSnapshot::Build(data::GenerateMovies(config));
  }
  if (IsFileDatasetSource(source)) {
    return engine::CorpusSnapshot::FromFile(source);
  }
  return Status::InvalidArgument(
      "unknown dataset '" + source +
      "' (products|outdoor|movies|path/to/file.xml)");
}

StatusOr<engine::Xsact> BuildEngine(const CliOptions& options) {
  StatusOr<engine::SnapshotPtr> snapshot =
      BuildSnapshot(options.dataset, options.seed);
  if (!snapshot.ok()) return snapshot.status();
  return engine::Xsact(std::move(*snapshot));
}

int RunApp(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (options.help) {
    out << CliUsage();
    return 0;
  }
  if (options.serve) {
    return RunServe(options, out, err);
  }
  if (options.datasets.size() >= 2) {
    if (options.list_only || options.ranked) {
      err << "--list/--ranked are single-dataset modes\n";
      return 1;
    }
    return RunRouter(options, out, err);
  }
  StatusOr<engine::Xsact> xsact = BuildEngine(options);
  if (!xsact.ok()) {
    err << xsact.status() << "\n";
    return 1;
  }

  if (options.stats) {
    const engine::IndexStats stats = xsact->snapshot()->index_stats();
    out << "corpus: " << xsact->snapshot()->table().size() << " nodes\n"
        << "index: " << stats.terms << " terms, " << stats.postings
        << " postings, " << stats.compressed_bytes
        << " bytes compressed (raw CSR " << stats.raw_csr_bytes << " bytes, "
        << FormatDouble(stats.ratio(), 2) << "x)\n";
    const engine::MemoryStats memory = xsact->snapshot()->memory_stats();
    out << "memory: " << memory.total_bytes() << " bytes ("
        << FormatDouble(memory.PerNode(memory.total_bytes()), 1)
        << " B/node)\n";
    const std::pair<const char*, size_t> structures[] = {
        {"node records", memory.node_records_bytes},
        {"node table", memory.node_table_bytes},
        {"source text", memory.source_text_bytes},
        {"postings", memory.postings_bytes},
        {"category index", memory.category_index_bytes}};
    for (const auto& [name, bytes] : structures) {
      out << "  " << name << ": " << bytes << " bytes ("
          << FormatDouble(memory.PerNode(bytes), 1) << " B/node)\n";
    }
    if (options.query.empty()) return 0;
  }

  if (options.watch) {
    return RunWatch(options, *xsact, CompareOptionsFor(options), out, err);
  }

  auto results = options.ranked ? xsact->SearchRanked(options.query)
                                : xsact->Search(options.query);
  if (!results.ok()) {
    err << results.status() << "\n";
    return 1;
  }
  out << "query \"" << options.query << "\": " << results->size()
      << " results\n";
  if (options.list_only || results->size() < 2) {
    size_t shown = 0;
    for (const auto& r : *results) {
      out << "  " << ++shown << ". " << r.title;
      const std::string snippet = search::BriefSnippet(*r.root);
      if (!snippet.empty()) out << "  [" << snippet << "]";
      out << "\n";
    }
    if (!options.list_only && results->size() < 2) {
      err << "need at least two results to compare\n";
      return 1;
    }
    return 0;
  }

  const engine::CompareOptions compare = CompareOptionsFor(options);
  if (options.threads > 0 || options.repeat > 1 || options.cache) {
    return RunLoadGen(options, *xsact, compare, out, err);
  }
  auto outcome = xsact->SearchAndCompare(options.query, 0, compare);
  if (!outcome.ok()) {
    err << outcome.status() << "\n";
    return 1;
  }
  if (options.algorithm == core::SelectorKind::kWeightedMultiSwap &&
      options.weight_scheme != core::WeightScheme::kInterestingness) {
    // MakeSelector defaults the weighted algorithm to interestingness;
    // re-select with the requested scheme on the already-built instance.
    core::WeightedMultiSwapOptimizer selector(options.weight_scheme);
    core::SelectorOptions sopts;
    sopts.size_bound = options.bound;
    outcome->dfss = selector.Select(outcome->instance, sopts);
    outcome->table = table::BuildComparisonTable(outcome->instance,
                                                 outcome->dfss);
    outcome->total_dod = outcome->table.total_dod;
  }

  out << Render(outcome->table, options.format);
  if (options.explain) {
    const auto explanations =
        table::ExplainDifferences(outcome->instance, outcome->dfss);
    out << "\nkey differences:\n"
        << table::RenderExplanations(explanations);
  }
  if (options.show_dfs) {
    out << "\nselected DFSs (" << core::SelectorKindName(options.algorithm)
        << "):\n";
    for (int i = 0; i < outcome->instance.num_results(); ++i) {
      out << "  " << outcome->table.headers[static_cast<size_t>(i)] << ": "
          << outcome->dfss[static_cast<size_t>(i)].ToString(outcome->instance)
          << "\n";
    }
  }
  return 0;
}

}  // namespace xsact::cli
