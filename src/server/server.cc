#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/errno_util.h"
#include "common/faultpoint.h"
#include "table/renderer.h"

namespace xsact::server {

namespace {

// Fault points on every transport path (docs/robustness.md). A fired
// fault is handled exactly like the real I/O error it models: the
// affected connection is dropped, the server keeps serving.
const fault::FaultPointId kFaultAccept =
    fault::RegisterFaultPoint("server.accept");
const fault::FaultPointId kFaultRead =
    fault::RegisterFaultPoint("server.read");
const fault::FaultPointId kFaultWrite =
    fault::RegisterFaultPoint("server.write");

/// Bytes a client may send that the parser cannot yet consume —
/// pipelined requests queued behind an in-flight evaluation. Beyond
/// this the connection is a flood, not a pipeline. (Bytes of the
/// request currently being parsed don't count against this: the parser
/// consumes them immediately, bounded by its own HttpParserLimits.)
constexpr size_t kMaxBufferedInput = 64 * 1024;

/// How long the listener rests after accept() runs out of descriptors
/// (EMFILE and kin). The refused connection stays queued, so the
/// listener stays readable; polling it meanwhile would spin the loop.
constexpr std::chrono::milliseconds kAcceptBackoff(100);

/// Grace window after the forced drain for flushing the cancellations.
constexpr std::chrono::milliseconds kForcedDrainGrace(1000);

/// poll() timeout that sleeps until `at` (rounded up), -1 for never.
int PollTimeoutMs(std::chrono::steady_clock::time_point now,
                  std::chrono::steady_clock::time_point at) {
  if (at == std::chrono::steady_clock::time_point::max()) return -1;
  if (at <= now) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(at - now).count();
  return static_cast<int>(std::min<decltype(ms)>(ms, INT_MAX));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string ErrorJson(int http_status, std::string_view detail) {
  std::string out = "{\"error\":{\"status\":";
  out += std::to_string(http_status);
  out += ",\"reason\":\"";
  out += JsonEscape(HttpReasonPhrase(http_status));
  out += "\",\"detail\":\"";
  out += JsonEscape(detail);
  out += "\"}}\n";
  return out;
}

void AppendCounter(std::string* out, std::string_view name, uint64_t value,
                   bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += name;
  *out += "\":";
  *out += std::to_string(value);
}

}  // namespace

struct HttpServer::Connection {
  Connection(uint64_t id, int fd, const HttpParserLimits& limits,
             Clock::time_point now)
      : id(id),
        fd(fd),
        parser(limits),
        last_read(now),
        last_write_progress(now) {}

  uint64_t id;
  int fd = -1;
  HttpParser parser;
  /// Received-but-unparsed bytes: pipelined requests, or input arriving
  /// while the engine evaluates the current one. Bounded.
  std::string pending_input;
  std::string outbuf;
  size_t out_off = 0;
  Clock::time_point last_read;
  Clock::time_point last_write_progress;
  bool close_after_flush = false;
  bool request_keep_alive = true;
  /// Engine round-trip state. `cancel` must stay at a stable address and
  /// alive until the request's completion has run — the engine may read
  /// it until then.
  bool awaiting = false;
  std::unique_ptr<CancelSource> cancel;
};

HttpServer::HttpServer(engine::ServiceRouter* router, ServerOptions options)
    : router_(router), options_(std::move(options)) {}

HttpServer::~HttpServer() {
  // An outstanding completion will call Deliver() on this object, and
  // its engine task may read a connection's CancelSource until then:
  // free nothing before every one has run. The engine resolves every
  // request it accepted, so the wait ends.
  {
    MutexLock lock(completion_mu_);
    while (outstanding_ > 0) completion_cv_.Wait(completion_mu_);
  }
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status HttpServer::Start() {
  if (listen_fd_ >= 0) return Status::Ok();
  if (::pipe(wake_pipe_) != 0) {
    return Status::IoError("pipe(): " + ErrnoString(errno));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  ::fcntl(wake_pipe_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(wake_pipe_[1], F_SETFD, FD_CLOEXEC);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + ErrnoString(errno));
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind(127.0.0.1:" +
                           std::to_string(options_.port) +
                           "): " + ErrnoString(err));
  }
  if (::listen(fd, options_.backlog) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("listen(): " + ErrnoString(err));
  }
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return Status::IoError("fcntl(O_NONBLOCK) on listener failed");
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = options_.port;
  }
  listen_fd_ = fd;
  listener_open_ = true;
  return Status::Ok();
}

void HttpServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void HttpServer::WakeLoop() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  // EAGAIN means the pipe is full: the loop is already due to wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void HttpServer::Deliver(uint64_t connection_id,
                         StatusOr<engine::OutcomePtr> result) {
  MutexLock lock(completion_mu_);
  // One byte per empty → non-empty transition: the loop empties the
  // queue after draining the pipe, so a later push always writes again.
  if (completed_.empty()) WakeLoop();
  completed_.push_back({connection_id, std::move(result)});
  // Last touch of the server by this thread: notify under the lock so
  // the destructor cannot free the CondVar between decrement and notify.
  if (--outstanding_ == 0) completion_cv_.NotifyAll();
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_at_capacity =
      rejected_at_capacity_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  s.responses_error = responses_error_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.cancelled_by_disconnect =
      cancelled_by_disconnect_.load(std::memory_order_relaxed);
  s.accept_errors = accept_errors_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::Run() {
  bool forced = false;
  Clock::time_point hard_deadline = Clock::time_point::max();
  std::vector<pollfd> fds;

  while (true) {
    const Clock::time_point now = Clock::now();

    // --- drain state machine ------------------------------------------
    if (stop_requested_.load(std::memory_order_acquire) &&
        !draining_.load(std::memory_order_acquire)) {
      BeginDrain();
    }
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      // Idle keep-alive connections have nothing to finish: close them.
      for (auto& conn : connections_) {
        if (conn && !conn->parser.started() && !conn->awaiting &&
            conn->outbuf.size() == conn->out_off) {
          CloseConnection(std::move(conn));
        }
      }
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), nullptr),
          connections_.end());
      // Detached connections have no peer left to answer; the destructor
      // waits for their completions.
      if (connections_.empty()) break;
      if (!forced && now >= drain_deadline_) {
        ForceDrain();
        forced = true;
        hard_deadline = now + kForcedDrainGrace;
      }
      if (forced && now >= hard_deadline) {
        // Peers still not done after the grace window are dropped; a
        // request still with the engine detaches like a disconnect (its
        // cancel already fired in ForceDrain).
        for (auto& conn : connections_) {
          ::close(conn->fd);
          conn->fd = -1;
          if (conn->awaiting) detached_.push_back(std::move(conn));
        }
        connections_.clear();
        break;
      }
    }

    // --- build the poll set and its timeout ---------------------------
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    // The external wakeup fd stays readable once it fires (it is not
    // ours to drain): stop watching it after it started the drain.
    const bool watch_wakeup = options_.wakeup_fd >= 0 && !draining;
    const size_t wakeup_slot = fds.size();
    if (watch_wakeup) fds.push_back({options_.wakeup_fd, POLLIN, 0});
    Clock::time_point wake_at = Clock::time_point::max();
    if (draining) wake_at = forced ? hard_deadline : drain_deadline_;
    const size_t listen_slot = fds.size();
    const bool accepting = listener_open_ && now >= accept_resume_at_;
    if (accepting) {
      fds.push_back({listen_fd_, POLLIN, 0});
    } else if (listener_open_) {
      wake_at = std::min(wake_at, accept_resume_at_);
    }
    const size_t conn_base = fds.size();
    const size_t num_conns = connections_.size();
    for (const auto& conn : connections_) {
      short events = POLLIN;
      // Input/EOF is always watched: disconnects must be seen even while
      // the engine is busy on this connection's request.
      if (conn->outbuf.size() > conn->out_off) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      wake_at = std::min(wake_at, TimeoutAt(*conn));
    }

    const int ready =
        ::poll(fds.data(), fds.size(), PollTimeoutMs(now, wake_at));
    if (ready < 0 && errno != EINTR) break;  // poll itself failed: bail

    const Clock::time_point after = Clock::now();

    // --- wakeups and delivered results ---------------------------------
    if (fds[0].revents & POLLIN) {
      // Drain the pipe BEFORE taking the queue: a result pushed after
      // this read writes a fresh byte, so no wakeup is lost.
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (watch_wakeup && (fds[wakeup_slot].revents & POLLIN)) BeginDrain();
    DrainCompletions();

    // --- accept --------------------------------------------------------
    if (accepting && (fds[listen_slot].revents & POLLIN)) AcceptPending();

    // --- per-connection events ----------------------------------------
    for (size_t i = 0; i < num_conns; ++i) {
      auto& conn = connections_[i];
      if (!conn) continue;
      const short revents = fds[conn_base + i].revents;
      bool alive = true;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = HandleReadable(conn.get());
      }
      if (alive && conn->outbuf.size() > conn->out_off) {
        alive = HandleWritable(conn.get());
      }
      if (alive) alive = CheckTimeouts(conn.get(), after);
      if (!alive) CloseConnection(std::move(conn));
    }

    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), nullptr),
        connections_.end());
  }

  if (listener_open_) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    listener_open_ = false;
  }
}

void HttpServer::DrainCompletions() {
  std::vector<Completed> batch;
  {
    MutexLock lock(completion_mu_);
    batch.swap(completed_);
  }
  for (Completed& done : batch) {
    const auto same_id = [&](const std::unique_ptr<Connection>& conn) {
      return conn != nullptr && conn->id == done.connection_id;
    };
    const auto detached =
        std::find_if(detached_.begin(), detached_.end(), same_id);
    if (detached != detached_.end()) {
      // Nobody to answer; the engine is done with the CancelSource.
      detached_.erase(detached);
      continue;
    }
    const auto live =
        std::find_if(connections_.begin(), connections_.end(), same_id);
    if (live == connections_.end()) continue;
    FinishQuery(live->get(), done.result);
    // Flush now rather than after another trip through poll().
    if ((*live)->outbuf.size() > (*live)->out_off &&
        !HandleWritable(live->get())) {
      CloseConnection(std::move(*live));
    }
  }
}

void HttpServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_budget_ms);
  if (listener_open_) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    listener_open_ = false;
  }
}

void HttpServer::ForceDrain() {
  // Budget exhausted: tell the engine to resolve everything it holds.
  for (const std::string& name : router_->dataset_names()) {
    if (engine::QueryService* service = router_->service(name)) {
      service->Shutdown();
    }
  }
  for (auto& conn : connections_) {
    if (conn->cancel) conn->cancel->Cancel();
  }
  for (auto& conn : detached_) {
    if (conn->cancel) conn->cancel->Cancel();
  }
}

void HttpServer::AcceptPending() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR) continue;
      // Accept failures must not kill the loop. Out of descriptors or
      // memory, the refused connection stays queued and the listener
      // stays readable: rest it (Run() leaves it out of the poll set)
      // until the backoff passes or a connection closes.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        accept_resume_at_ = Clock::now() + kAcceptBackoff;
      }
      return;
    }
    const Status fault = fault::CheckFaultPoint(kFaultAccept);
    if (!fault.ok()) {
      ::close(fd);
      continue;
    }
    if (connections_.size() + detached_.size() >= options_.max_connections) {
      rejected_at_capacity_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse resp;
      resp.code = 503;
      resp.body = ErrorJson(503, "connection limit reached");
      resp.close = true;
      const std::string wire = SerializeResponse(resp, false);
      // Best effort; the peer may not even read it.
      [[maybe_unused]] const ssize_t n =
          ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_.push_back(std::make_unique<Connection>(
        next_connection_id_++, fd, options_.parser_limits, Clock::now()));
  }
}

bool HttpServer::HandleReadable(Connection* conn) {
  const Status fault = fault::CheckFaultPoint(kFaultRead);
  if (!fault.ok()) {
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  char buf[8192];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (n == 0) {
      // Peer closed. CloseConnection fires the request's cancel if the
      // engine still owns one and keeps the object alive (detached)
      // until its completion arrives.
      if (conn->awaiting || conn->parser.started() ||
          conn->outbuf.size() > conn->out_off) {
        disconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    conn->last_read = Clock::now();
    if (!conn->close_after_flush) {
      conn->pending_input.append(buf, static_cast<size_t>(n));
    }
    // Parse eagerly between reads so a large-but-legal body (up to
    // max_body_bytes) arriving in one burst is consumed as it lands;
    // only bytes the parser cannot take yet count toward the cap.
    ParseBuffered(conn);
    if (conn->pending_input.size() > kMaxBufferedInput) {
      // Flooding while a request is in flight (or between requests).
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  ParseBuffered(conn);
  return true;
}

void HttpServer::ParseBuffered(Connection* conn) {
  while (!conn->awaiting && !conn->close_after_flush &&
         !conn->pending_input.empty()) {
    const size_t used = conn->parser.Feed(conn->pending_input);
    conn->pending_input.erase(0, used);
    if (conn->parser.failed()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      responses_error_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse resp;
      resp.code = conn->parser.error_code();
      resp.body = ErrorJson(resp.code, conn->parser.error_detail());
      resp.close = true;  // framing is untrustworthy from here on
      QueueResponse(conn, std::move(resp));
      conn->pending_input.clear();
      return;
    }
    if (!conn->parser.done()) return;  // need more bytes
    requests_.fetch_add(1, std::memory_order_relaxed);
    DispatchRequest(conn);
    if (!conn->awaiting) {
      if (!conn->request_keep_alive) {
        conn->pending_input.clear();
      } else if (!conn->close_after_flush) {
        conn->parser.Reset();  // next pipelined request
      }
    }
  }
}

bool HttpServer::HandleWritable(Connection* conn) {
  const Status fault = fault::CheckFaultPoint(kFaultWrite);
  if (!fault.ok()) {
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_off,
               conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
    conn->last_write_progress = Clock::now();
  }
  conn->outbuf.clear();
  conn->out_off = 0;
  return !conn->close_after_flush;  // flushed; close if requested
}

HttpServer::Clock::time_point HttpServer::TimeoutAt(
    const Connection& conn) const {
  using std::chrono::milliseconds;
  // A pending response: the write timer governs while flushing.
  if (conn.outbuf.size() > conn.out_off) {
    return conn.last_write_progress + milliseconds(options_.write_timeout_ms);
  }
  if (conn.awaiting || conn.close_after_flush) return Clock::time_point::max();
  if (conn.parser.started()) {
    return conn.last_read + milliseconds(options_.read_timeout_ms);
  }
  return conn.last_read + milliseconds(options_.idle_timeout_ms);
}

bool HttpServer::CheckTimeouts(Connection* conn, Clock::time_point now) {
  if (now <= TimeoutAt(*conn)) return true;
  // Every expiry counts: write, idle and read timeouts alike.
  timeouts_.fetch_add(1, std::memory_order_relaxed);
  // A response is pending and the peer isn't reading it.
  if (conn->outbuf.size() > conn->out_off) return false;
  // Idle keep-alive connection: close without a response.
  if (!conn->parser.started()) return false;
  // Mid-request silence: slow-loris. Answer 408 and close.
  responses_error_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse resp;
  resp.code = 408;
  resp.body = ErrorJson(408, "request not completed within " +
                                 std::to_string(options_.read_timeout_ms) +
                                 " ms");
  resp.close = true;
  QueueResponse(conn, std::move(resp));
  return true;
}

void HttpServer::DispatchRequest(Connection* conn) {
  const HttpRequest& req = conn->parser.request();
  conn->request_keep_alive = req.keep_alive;

  std::string_view raw_path;
  std::string_view query_string;
  SplitTarget(req.target, &raw_path, &query_string);
  std::string path;
  if (!PercentDecode(raw_path, &path)) {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    resp.code = 400;
    resp.body = ErrorJson(400, "undecodable request path");
    QueueResponse(conn, std::move(resp));
    return;
  }

  if (req.method != "GET" && req.method != "POST") {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    resp.code = 405;
    resp.body = ErrorJson(405, "method '" + req.method + "' not supported");
    resp.extra_headers.emplace_back("Allow", "GET, POST");
    QueueResponse(conn, std::move(resp));
    return;
  }

  if (path == "/healthz") {
    HttpResponse resp;
    if (draining_.load(std::memory_order_acquire)) {
      resp.code = 503;
      resp.body = "{\"status\":\"draining\"}\n";
    } else {
      resp.code = 200;
      resp.body = HandleHealthz();
    }
    (resp.code == 200 ? responses_ok_ : responses_error_)
        .fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, std::move(resp));
    return;
  }
  if (path == "/statz") {
    HttpResponse resp;
    resp.code = 200;
    resp.body = HandleStatz();
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, std::move(resp));
    return;
  }
  if (path != "/query") {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    resp.code = 404;
    resp.body = ErrorJson(404, "no such endpoint '" + path + "'");
    QueueResponse(conn, std::move(resp));
    return;
  }

  // ---- /query --------------------------------------------------------
  if (draining_.load(std::memory_order_acquire)) {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    resp.code = 503;
    resp.body = ErrorJson(503, "server is draining");
    resp.close = true;
    QueueResponse(conn, std::move(resp));
    return;
  }

  std::string dataset;
  std::string query;
  std::string lift;
  size_t max_results = 0;
  int timeout_ms = options_.default_deadline_ms;
  for (const auto& [name, value] :
       ParseQueryParams(query_string)) {
    if (name == "dataset") {
      dataset = value;
    } else if (name == "q") {
      query = value;
    } else if (name == "lift") {
      lift = value;
    } else if (name == "max_results" || name == "timeout_ms") {
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos ||
          value.size() > 9) {
        responses_error_.fetch_add(1, std::memory_order_relaxed);
        HttpResponse resp;
        resp.code = 400;
        resp.body =
            ErrorJson(400, "parameter '" + name + "' must be a number");
        QueueResponse(conn, std::move(resp));
        return;
      }
      const long parsed = std::strtol(value.c_str(), nullptr, 10);
      if (name == "max_results") {
        max_results = static_cast<size_t>(parsed);
      } else {
        timeout_ms = static_cast<int>(parsed);
      }
    }
    // Unknown parameters are ignored (forward compatibility).
  }
  if (query.empty() && req.method == "POST") query = req.body;
  if (dataset.empty() && router_->num_datasets() == 1) {
    dataset = router_->dataset_names().front();
  }
  if (query.empty() || dataset.empty()) {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp;
    resp.code = 400;
    resp.body = ErrorJson(
        400, query.empty()
                 ? "missing query: pass ?q=... or a POST body"
                 : "missing ?dataset=... (several datasets are served)");
    QueueResponse(conn, std::move(resp));
    return;
  }

  engine::CompareOptions copts;
  if (!lift.empty()) copts.lift_results_to = lift;
  const engine::Deadline deadline =
      timeout_ms > 0
          ? Clock::now() + std::chrono::milliseconds(timeout_ms)
          : engine::kNoDeadline;
  conn->cancel = std::make_unique<CancelSource>();
  conn->awaiting = true;
  {
    MutexLock lock(completion_mu_);
    ++outstanding_;
  }
  // The completion may run right here (cache hit, rejection) or on a
  // worker; either way it only queues the result for DrainCompletions.
  router_->Submit(dataset, std::move(query), copts, max_results, deadline,
                  conn->cancel.get(),
                  [this, id = conn->id](StatusOr<engine::OutcomePtr> result) {
                    Deliver(id, std::move(result));
                  });
}

void HttpServer::FinishQuery(Connection* conn,
                             const StatusOr<engine::OutcomePtr>& result) {
  conn->awaiting = false;
  // The completion has run: the engine can no longer dereference the
  // cancel source, so its lifetime obligation has ended.
  conn->cancel.reset();

  HttpResponse resp;
  if (result.ok()) {
    resp.code = 200;
    // EXACTLY the direct-path rendering — bench_server_serve gates that
    // HTTP bodies are byte-identical to table::RenderJson on the
    // outcome returned by ServiceRouter::Submit.
    resp.body = table::RenderJson((*result)->table);
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const Status& status = result.status();
    resp.code = HttpStatusForCode(status.code());
    resp.body = ErrorJson(resp.code, status.ToString());
    if (resp.code == 429) {
      resp.extra_headers.emplace_back("Retry-After", "1");
    }
    responses_error_.fetch_add(1, std::memory_order_relaxed);
  }
  QueueResponse(conn, std::move(resp));

  // Pipelined follow-up requests may already be buffered; feed them
  // through the same path as fresh reads.
  if (conn->request_keep_alive && !conn->close_after_flush) {
    conn->parser.Reset();
    ParseBuffered(conn);
  } else {
    conn->pending_input.clear();
  }
}

void HttpServer::QueueResponse(Connection* conn, HttpResponse response) {
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool keep_alive = conn->request_keep_alive && !response.close &&
                          !conn->close_after_flush && !draining;
  conn->outbuf += SerializeResponse(response, keep_alive);
  if (!keep_alive) conn->close_after_flush = true;
  conn->last_write_progress = Clock::now();
  // Restart the idle clock: an engine evaluation longer than
  // idle_timeout_ms must not get the keep-alive connection closed as
  // "idle" the moment its response flushes.
  conn->last_read = conn->last_write_progress;
}

void HttpServer::CloseConnection(std::unique_ptr<Connection> conn) {
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
    // A freed descriptor is what a resting listener waits for.
    accept_resume_at_ = Clock::time_point::min();
  }
  if (!conn->awaiting) return;
  // Every close path — EOF, recv/write errors, timeouts, floods —
  // abandons in-flight engine work, not just clean EOF.
  if (conn->cancel) {
    cancelled_by_disconnect_.fetch_add(1, std::memory_order_relaxed);
    conn->cancel->Cancel();
  }
  // Engine work still references conn->cancel: keep the object alive
  // until its completion arrives (DrainCompletions frees it).
  detached_.push_back(std::move(conn));
}

std::string HttpServer::HandleHealthz() const {
  const engine::RouterStats stats = router_->stats();
  const uint64_t unhealthy = stats.total_unhealthy();
  std::string out = "{\"status\":\"";
  out += unhealthy == 0 ? "ok" : "degraded";
  out += "\",\"datasets\":";
  out += std::to_string(stats.datasets.size());
  out += ",\"unhealthy\":";
  out += std::to_string(unhealthy);
  out += "}\n";
  return out;
}

std::string HttpServer::HandleStatz() const {
  const ServerStats s = stats();
  std::string out = "{\"server\":{";
  bool first = true;
  AppendCounter(&out, "accepted", s.accepted, &first);
  AppendCounter(&out, "rejected_at_capacity", s.rejected_at_capacity,
                &first);
  AppendCounter(&out, "requests", s.requests, &first);
  AppendCounter(&out, "responses_ok", s.responses_ok, &first);
  AppendCounter(&out, "responses_error", s.responses_error, &first);
  AppendCounter(&out, "parse_errors", s.parse_errors, &first);
  AppendCounter(&out, "timeouts", s.timeouts, &first);
  AppendCounter(&out, "disconnects", s.disconnects, &first);
  AppendCounter(&out, "cancelled_by_disconnect", s.cancelled_by_disconnect,
                &first);
  AppendCounter(&out, "accept_errors", s.accept_errors, &first);
  out += "},\"draining\":";
  out += draining_.load(std::memory_order_acquire) ? "true" : "false";
  out += ",\"router\":";
  out += RouterStatsJson(router_->stats());
  out += "}\n";
  return out;
}

std::string RouterStatsJson(const engine::RouterStats& stats) {
  std::string out = "{\"datasets\":[";
  bool first_dataset = true;
  for (const engine::DatasetStats& d : stats.datasets) {
    if (!first_dataset) out += ',';
    first_dataset = false;
    out += "{\"dataset\":\"";
    out += JsonEscape(d.dataset);
    out += "\",\"epoch\":";
    out += std::to_string(d.epoch);
    out += ",\"cache\":{";
    bool first = true;
    AppendCounter(&out, "hits", d.cache.hits, &first);
    AppendCounter(&out, "misses", d.cache.misses, &first);
    AppendCounter(&out, "evictions", d.cache.evictions, &first);
    AppendCounter(&out, "entries", d.cache.entries, &first);
    out += "},\"admission\":{";
    first = true;
    AppendCounter(&out, "admitted", d.admission.admitted, &first);
    AppendCounter(&out, "shed", d.admission.shed, &first);
    AppendCounter(&out, "deadline_exceeded", d.admission.deadline_exceeded,
                  &first);
    AppendCounter(&out, "cancelled", d.admission.cancelled, &first);
    AppendCounter(&out, "queue_depth", d.admission.queue_depth, &first);
    out += "},\"health\":{\"healthy\":";
    out += d.health.healthy ? "true" : "false";
    out += ",\"reload_successes\":";
    out += std::to_string(d.health.reload_successes);
    out += ",\"reload_failures\":";
    out += std::to_string(d.health.reload_failures);
    out += ",\"reload_attempts\":";
    out += std::to_string(d.health.reload_attempts);
    out += ",\"last_error\":\"";
    out += JsonEscape(d.health.last_error);
    out += "\"},\"memory\":{";
    first = true;
    AppendCounter(&out, "nodes", d.memory.nodes, &first);
    AppendCounter(&out, "node_records_bytes", d.memory.node_records_bytes,
                  &first);
    AppendCounter(&out, "node_table_bytes", d.memory.node_table_bytes,
                  &first);
    AppendCounter(&out, "source_text_bytes", d.memory.source_text_bytes,
                  &first);
    AppendCounter(&out, "postings_bytes", d.memory.postings_bytes, &first);
    AppendCounter(&out, "category_index_bytes",
                  d.memory.category_index_bytes, &first);
    AppendCounter(&out, "total_bytes", d.memory.total_bytes(), &first);
    out += "}}";
  }
  out += "],\"totals\":{";
  bool first = true;
  AppendCounter(&out, "shed", stats.total_shed(), &first);
  AppendCounter(&out, "deadline_exceeded", stats.total_deadline_exceeded(),
                &first);
  AppendCounter(&out, "queue_depth", stats.total_queue_depth(), &first);
  AppendCounter(&out, "unhealthy", stats.total_unhealthy(), &first);
  out += "}}";
  return out;
}

}  // namespace xsact::server
