// HttpServer: the hardened network front-end of the XSACT serving stack.
//
// One poll()-driven event-loop thread serves HTTP/1.1 (keep-alive,
// pipelining-tolerant) in front of an engine::ServiceRouter. The design
// goal is robustness under hostile or failing clients, in layers:
//
//   * Bounded everything: connection count (accept beyond the cap is
//     answered 503 and closed), per-request parser allocations
//     (HttpParserLimits — oversized requests get 413/431), per-connection
//     output buffering.
//   * Timeouts: a connection mid-request that stops sending bytes is a
//     slow-loris — answered 408 and closed after read_timeout_ms; an
//     idle keep-alive connection is silently closed after
//     idle_timeout_ms; a peer that stops reading its response is closed
//     after write_timeout_ms.
//   * Malformed input: the incremental parser turns any garbage into a
//     clean 4xx/5xx + close; random bytes can never reach the engine.
//   * Backpressure: admission control stays in QueryService (bounded
//     queue + deadlines); the server maps the resulting Status onto
//     HTTP via common/status.h — kResourceExhausted → 429 + Retry-After,
//     kDeadlineExceeded → 504, kCancelled → 499, corruption/internal →
//     500 — so clients see intent, not stack traces.
//   * Client-disconnect detection: a peer that hangs up while its query
//     is queued or evaluating fires the request's CancelSource, so the
//     engine abandons the work instead of computing for nobody.
//   * Graceful drain: Stop() (or readability of options.wakeup_fd — wire
//     it to common/shutdown_signal.h for SIGTERM/SIGINT) closes the
//     listener, lets in-flight requests finish within drain_budget_ms,
//     then hard-cancels the engine via QueryService::Shutdown() and
//     answers every remaining connection before Run() returns.
//
// Completion-driven loop: queries go to the router's completion form of
// Submit. The completion runs on whichever thread resolves the request
// (an engine worker, or the loop itself for a cache hit or an immediate
// rejection); it pushes {connection id, result} onto a loop-owned,
// lock-guarded queue and writes one byte to the loop's self-pipe when
// that queue goes from empty to non-empty. poll() therefore sleeps until
// a socket is ready, a result arrives, or the earliest read/idle/write/
// drain deadline passes — there is no periodic tick. A connection whose
// peer leaves mid-evaluation is closed and kept detached until its
// completion arrives (the engine may read its CancelSource until then);
// the destructor waits for every outstanding completion, so none can
// touch a freed server. When accept() runs out of descriptors the
// listener rests for a short fixed backoff (or until a connection
// closes) instead of spinning on its readability.
//
// Endpoints (full contract in docs/serving.md):
//   GET /query?dataset=D&q=Q[&max_results=N][&timeout_ms=T][&lift=TAG]
//       200 with the comparison table as JSON — byte-identical to
//       table::RenderJson on the direct router path (gated by
//       bench_server_serve) — or a mapped error JSON.
//   GET /healthz   200 {"status":"ok"} serving; 503 draining/unhealthy.
//   GET /statz     RouterStats + ServerStats as JSON.
//
// Threading: Start() may be called from any thread; Run() occupies the
// calling thread until drain completes; Stop() and stats() are safe from
// any thread. All connection state is owned by the Run() thread; the
// completion queue is the one structure shared with engine workers.

#ifndef XSACT_SERVER_SERVER_H_
#define XSACT_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "engine/query_service.h"
#include "engine/router.h"
#include "server/http.h"

namespace xsact::server {

/// Tuning knobs. The defaults serve a trusted LAN; the timeouts are the
/// knobs to tighten on an exposed port.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read it via port()).
  int port = 0;
  int backlog = 128;
  /// Accepted connections beyond this are answered 503 and closed.
  size_t max_connections = 256;
  /// Mid-request silence budget (slow-loris): 408 + close beyond it.
  int read_timeout_ms = 5000;
  /// Idle keep-alive budget: silent close beyond it.
  int idle_timeout_ms = 30000;
  /// Stalled-response budget (peer stops reading): close beyond it.
  int write_timeout_ms = 5000;
  /// Graceful-drain budget: in-flight work past it is hard-cancelled
  /// (QueryService::Shutdown + per-request CancelSource).
  int drain_budget_ms = 2000;
  /// Per-request engine deadline when the client sends no timeout_ms
  /// parameter. 0 = no deadline.
  int default_deadline_ms = 0;
  /// Request parser caps (line/header/body sizes).
  HttpParserLimits parser_limits;
  /// External wakeup fd (e.g. common/shutdown_signal.h's
  /// ShutdownWakeupFd()): readability triggers the same graceful drain
  /// as Stop(). -1 = none.
  int wakeup_fd = -1;
};

/// Monotonic counters since Start(). Exposed via /statz.
struct ServerStats {
  uint64_t accepted = 0;         ///< connections accepted
  uint64_t rejected_at_capacity = 0;  ///< 503'd at max_connections
  uint64_t requests = 0;         ///< complete requests parsed
  uint64_t responses_ok = 0;     ///< 2xx responses queued
  uint64_t responses_error = 0;  ///< 4xx/5xx responses queued
  uint64_t parse_errors = 0;     ///< malformed requests (subset of above)
  uint64_t timeouts = 0;         ///< read/idle/write timeout closes
  uint64_t disconnects = 0;      ///< peers gone mid-request/mid-response
  uint64_t cancelled_by_disconnect = 0;  ///< engine work abandoned
  uint64_t accept_errors = 0;    ///< failed accept() calls (e.g. EMFILE)
};

/// See file comment. Not copyable/movable (connections hold pointers
/// back into the server).
class HttpServer {
 public:
  /// `router` must outlive the server and is shared with other callers
  /// (the server adds no locking of its own around it — the router is
  /// thread-safe).
  explicit HttpServer(engine::ServiceRouter* router,
                      ServerOptions options = {});
  /// Waits for every outstanding engine completion before freeing
  /// anything, so Run() must have returned (or never run).
  ~HttpServer() XSACT_EXCLUDES(completion_mu_);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds + listens on 127.0.0.1:options.port. After ok, port() holds
  /// the bound port (useful with port = 0).
  Status Start();

  /// Bound port; 0 before Start().
  int port() const { return port_; }

  /// Serves until a drain completes (triggered by Stop(), wakeup_fd
  /// readability, or a fatal listener error). Blocks the calling thread.
  /// The XSACT_EVENT_LOOP_THREAD marker (here and on the private
  /// handlers below) feeds tools/lint/run_lint.py: the bodies of marked
  /// functions must not block — no sleeps, no file IO, no waits on
  /// futures — because one stalled callback stalls every connection
  /// this loop serves.
  XSACT_EVENT_LOOP_THREAD void Run() XSACT_EXCLUDES(completion_mu_);

  /// Requests a graceful drain (thread-safe, idempotent, returns
  /// immediately). Run() returns once the drain finishes.
  void Stop();

  /// True from the moment a drain is requested.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Counter snapshot (thread-safe).
  ServerStats stats() const;

 private:
  struct Connection;
  using Clock = std::chrono::steady_clock;

  /// A resolved engine request on its way back to the loop.
  struct Completed {
    uint64_t connection_id;
    StatusOr<engine::OutcomePtr> result;
  };

  XSACT_EVENT_LOOP_THREAD void AcceptPending();
  /// Reads whatever the socket has; feeds the parser; may queue a
  /// response. False = connection must be destroyed.
  XSACT_EVENT_LOOP_THREAD bool HandleReadable(Connection* conn)
      XSACT_EXCLUDES(completion_mu_);
  /// Flushes pending output. False = connection must be destroyed.
  XSACT_EVENT_LOOP_THREAD bool HandleWritable(Connection* conn);
  /// Feeds buffered input through the parser, dispatching each complete
  /// request, until it needs more bytes, fails, or parks on the engine.
  XSACT_EVENT_LOOP_THREAD void ParseBuffered(Connection* conn)
      XSACT_EXCLUDES(completion_mu_);
  /// Routes one parsed request; either queues a response or parks the
  /// connection on the engine (its completion comes back via Deliver).
  XSACT_EVENT_LOOP_THREAD void DispatchRequest(Connection* conn)
      XSACT_EXCLUDES(completion_mu_);
  /// Completion target, run on the thread that resolves the request:
  /// queues the result for the loop and wakes it on the empty →
  /// non-empty transition. Never blocks beyond completion_mu_.
  void Deliver(uint64_t connection_id, StatusOr<engine::OutcomePtr> result)
      XSACT_EXCLUDES(completion_mu_);
  /// Hands every delivered result to its connection (FinishQuery) or,
  /// for a detached connection, frees it.
  XSACT_EVENT_LOOP_THREAD void DrainCompletions()
      XSACT_EXCLUDES(completion_mu_);
  /// Turns an engine result into the connection's response.
  XSACT_EVENT_LOOP_THREAD void FinishQuery(
      Connection* conn, const StatusOr<engine::OutcomePtr>& result)
      XSACT_EXCLUDES(completion_mu_);
  XSACT_EVENT_LOOP_THREAD void QueueResponse(Connection* conn,
                                             HttpResponse response);
  XSACT_EVENT_LOOP_THREAD void CloseConnection(
      std::unique_ptr<Connection> conn);
  /// When the connection's current read/idle/write timer expires;
  /// Clock::time_point::max() when none runs (awaiting the engine).
  Clock::time_point TimeoutAt(const Connection& conn) const;
  /// Applies read/idle/write timeouts; true = connection survived.
  XSACT_EVENT_LOOP_THREAD bool CheckTimeouts(Connection* conn,
                                             Clock::time_point now);
  XSACT_EVENT_LOOP_THREAD void BeginDrain();
  /// Hard phase: cancel all engine work. Run() then answers the
  /// stragglers as their completions arrive.
  XSACT_EVENT_LOOP_THREAD void ForceDrain();
  /// Makes poll() return (thread-safe; a full pipe already means so).
  void WakeLoop();

  XSACT_EVENT_LOOP_THREAD std::string HandleHealthz() const;
  XSACT_EVENT_LOOP_THREAD std::string HandleStatz() const;

  engine::ServiceRouter* router_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  /// Self-pipe waking poll() from Stop() and from delivered completions.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point drain_deadline_{};
  bool listener_open_ = false;
  /// While accept() is out of descriptors the listener leaves the poll
  /// set until this time (or until a connection closes).
  Clock::time_point accept_resume_at_{};

  std::vector<std::unique_ptr<Connection>> connections_;
  /// Closed connections whose engine request is still outstanding: the
  /// engine may read their CancelSource, so each is freed only when its
  /// completion arrives.
  std::vector<std::unique_ptr<Connection>> detached_;
  uint64_t next_connection_id_ = 0;

  /// Shared with the threads that run completions.
  Mutex completion_mu_;
  /// Signalled when outstanding_ drops to zero (the destructor waits).
  CondVar completion_cv_;
  std::vector<Completed> completed_ XSACT_GUARDED_BY(completion_mu_);
  /// Submitted requests whose completion has not run yet.
  size_t outstanding_ XSACT_GUARDED_BY(completion_mu_) = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_at_capacity_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_error_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> disconnects_{0};
  std::atomic<uint64_t> cancelled_by_disconnect_{0};
  std::atomic<uint64_t> accept_errors_{0};
};

/// Serializes RouterStats (per-dataset cache/admission/health counters
/// plus totals) as a JSON object — the /statz "datasets"/"totals"
/// payload, also reusable by tooling.
std::string RouterStatsJson(const engine::RouterStats& stats);

}  // namespace xsact::server

#endif  // XSACT_SERVER_SERVER_H_
