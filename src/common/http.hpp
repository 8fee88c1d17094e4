// Minimal HTTP/1.0 loopback plumbing shared by the serving tools
// (obs_report --serve, split_attack_server) and their benches/tests.
//
// Scope: one request per connection, loopback only, no TLS, no
// keep-alive. What it does do carefully:
//
//   * Deadline-bounded reads. read_request() drives a poll() loop with a
//     per-connection wall-clock deadline and keeps reading until the
//     header terminator (and any Content-Length body) arrives, however
//     the client fragments it. A connected-but-silent client therefore
//     costs one deadline, never a wedged serve loop, and a GET whose
//     request line dribbles in across TCP segments parses the same as
//     one delivered whole (both were live bugs in the original
//     obs_report handler: a single blocking ::read() with no timeout).
//   * Bounded request sizes. Headers and body are capped; oversized
//     requests fail with kOutOfRange before they can balloon RSS.
//   * Careful writes. write_response() emits status line + headers +
//     body through an EINTR-tolerant partial-write loop, so large
//     metric dumps survive short writes on a full socket buffer.
//
// Error mapping contract (used by Server and the tools):
//   kIoError    -> read deadline expired / socket error -> 408, close
//   kOutOfRange -> header or body over the cap          -> 413, close
//   kParseError -> malformed request line / headers     -> 400, close
//   kDataLoss   -> peer closed mid-request              -> close silently
//
// Server runs N handler threads that each poll-accept on a shared
// non-blocking listener with a short tick, so stop() (or a CancelToken)
// drains: every thread finishes the request it is serving, then exits.
// Handlers run concurrently — route logic must be thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/status.hpp"

namespace repro::common::http {

/// One parsed request. Header names are lower-cased at parse time;
/// values keep their case with surrounding whitespace trimmed.
struct Request {
  std::string method;   ///< "GET", "POST", ... (upper-cased by the parser)
  std::string path;     ///< request-target, e.g. "/metrics?live=1"
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::string body;     ///< Content-Length bytes (possibly empty)
  std::vector<std::pair<std::string, std::string>> headers;

  /// Value of the first header with this (lower-case) name, or nullptr.
  const std::string* header(std::string_view name) const;
};

/// One response; write_response adds Content-Length and Connection
/// headers. `extra_headers` lets endpoints add e.g. Retry-After.
struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;

  /// Client side: every header parse_response saw, names lower-cased,
  /// values trimmed (the write side uses extra_headers as-is).
  std::vector<std::pair<std::string, std::string>> headers;

  /// Value of the first parsed header with this (lower-case) name, or
  /// nullptr.
  const std::string* header(std::string_view name) const;
};

/// Per-connection read policy. The deadline covers the whole request
/// (first byte through end of body), not each read() individually.
struct ReadLimits {
  double deadline_s = 5.0;
  std::size_t max_header_bytes = 8192;
  std::size_t max_body_bytes = 1 << 20;  ///< 1 MiB
};

/// Reads one full request from a connected socket under `limits`.
/// Blocks (via poll) at most limits.deadline_s in total. See the error
/// mapping contract in the file comment.
StatusOr<Request> read_request(int fd, const ReadLimits& limits);

/// Writes the response with an HTTP/1.0 status line, Content-Type,
/// Content-Length and Connection: close headers. Short writes and
/// EINTR are retried; a peer reset surfaces as kIoError (callers
/// typically just close the connection).
Status write_response(int fd, const Response& resp);

/// Canonical reason phrase ("OK", "Not Found", ...; "Status" fallback).
const char* status_reason(int code);

/// The standard Response for a failed read_request, per the error
/// mapping contract; returns false when the failure warrants closing
/// without a response (peer went away).
bool response_for_read_error(const Status& err, Response* out);

/// A bound loopback listening socket (127.0.0.1 only, CLOEXEC,
/// non-blocking). port 0 picks a free port; port() reports the actual
/// one.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept { *this = std::move(other); }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  static StatusOr<Listener> bind_loopback(int port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int port() const { return port_; }

  /// Waits up to timeout_ms for a connection and accepts it (CLOEXEC).
  /// Returns the connected fd, or -1 on timeout / transient error —
  /// callers loop, so the tick doubles as the shutdown poll interval.
  int accept_for(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Multi-threaded one-request-per-connection server.
class Server {
 public:
  using Handler = std::function<Response(const Request&)>;

  struct Options {
    int port = 0;         ///< 0 = auto-pick
    int num_threads = 4;  ///< concurrent handler threads (>= 1)
    ReadLimits limits;
    /// Optional: when set, the server also stops once the token fires
    /// (polled on the accept tick), so SIGTERM handlers need no direct
    /// reference to the server.
    const CancelToken* cancel = nullptr;
  };

  /// Monotonic event counts since start (relaxed atomics; exact).
  struct Stats {
    std::uint64_t accepted = 0;       ///< connections accepted
    std::uint64_t served = 0;         ///< responses written (any status)
    std::uint64_t read_timeouts = 0;  ///< 408s (silent/slow clients)
    std::uint64_t rejected = 0;       ///< 400/413 read-layer rejections
    std::uint64_t write_errors = 0;   ///< responses lost to a dead peer
  };

  /// Binds and starts the handler threads. The handler is called
  /// concurrently from up to num_threads threads.
  static StatusOr<std::unique_ptr<Server>> start(Options opt,
                                                 Handler handler);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return listener_.port(); }

  /// Drains and joins: no new connections are accepted, every thread
  /// finishes the request it is serving, then the listener closes.
  /// Idempotent; also invoked by the destructor.
  void stop();

  Stats stats() const;

 private:
  Server(Options opt, Handler handler)
      : opt_(std::move(opt)), handler_(std::move(handler)) {}
  void serve_loop();

  Options opt_;
  Handler handler_;
  Listener listener_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> write_errors_{0};
};

// --- client (tests, benches, check scripts, remote campaign) ----------------

/// One IPv4 server address. `host` must be a dotted-quad literal — the
/// client layer deliberately does no DNS (deterministic, no blocking
/// resolver in the dispatch path).
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;

  std::string label() const;  ///< "host:port"
};

/// Parses "host:port" (or just "port", meaning loopback).
StatusOr<Endpoint> parse_endpoint(const std::string& text);

/// Connects to `ep` under a wall-clock deadline: non-blocking connect,
/// poll(POLLOUT) until the handshake resolves, SO_ERROR check. An
/// unresponsive host (SYN black hole, full accept backlog) therefore
/// costs at most deadline_s, not the kernel's minutes-long SYN retry
/// schedule. Returns the connected fd (CLOEXEC, still non-blocking —
/// the read/write helpers poll) or an error; callers own the fd.
StatusOr<int> connect_to(const Endpoint& ep, double deadline_s = 5.0);

/// Connects to 127.0.0.1:port. Returns the connected fd (CLOEXEC) or an
/// error. Callers own the fd (::close it).
StatusOr<int> connect_loopback(int port, double deadline_s = 5.0);

/// One full client round-trip: connect, send the request, read the
/// response until EOF (the server closes after one response), parse it.
/// `deadline_s` covers the whole round trip, connect included. A
/// CancelToken aborts the read wait within ~100ms (kFailedPrecondition)
/// so a caller terminating a long in-flight request never blocks on the
/// server finishing.
StatusOr<Response> fetch(const Endpoint& ep, const std::string& method,
                         const std::string& path,
                         const std::string& body = std::string(),
                         const std::string& content_type =
                             "application/json",
                         double deadline_s = 10.0,
                         const CancelToken* cancel = nullptr);

/// Loopback shorthand for the above.
StatusOr<Response> fetch(int port, const std::string& method,
                         const std::string& path,
                         const std::string& body = std::string(),
                         const std::string& content_type =
                             "application/json",
                         double deadline_s = 10.0);

/// Parses a raw response byte stream (status line, headers, body) —
/// exposed for tests that drive sockets manually.
StatusOr<Response> parse_response(std::string_view raw);

// --- retrying client --------------------------------------------------------

/// Retry policy for fetch_with_retry. Failed attempts back off with
/// deterministic jittered exponential delays; a server `Retry-After`
/// (integer seconds, at most 86400; a larger or malformed value is
/// ignored) raises the planned delay when larger.
struct RetryPolicy {
  int max_attempts = 3;              ///< total tries per call (>= 1)
  double backoff_base_ms = 50.0;     ///< first retry delay, pre-jitter
  double backoff_max_ms = 2000.0;    ///< exponential growth cap
  std::uint64_t jitter_seed = 0;     ///< stream for deterministic jitter
  double request_deadline_s = 30.0;  ///< per-attempt connect + round trip
  /// Observer hook: called before every backoff wait with the 1-based
  /// count of failures so far, the planned delay, and whether a server
  /// Retry-After raised it. Tests pin the schedule through this.
  std::function<void(int attempt, double delay_ms, bool retry_after)>
      on_backoff;
  /// Tests: plan (and report) the delays but do not actually sleep.
  bool skip_sleep = false;
};

/// Counters for one fetch_with_retry call.
struct FetchStats {
  int attempts = 0;         ///< requests issued (injected faults included)
  int retries = 0;          ///< backoff waits taken
  int faults_injected = 0;  ///< REPRO_FAULT net_* actions applied
};

/// The deterministic jittered delay before retry `attempt` (1-based
/// count of failures so far): min(base * 2^(attempt-1), max) scaled
/// into [0.5, 1.0) by a hash of (jitter_seed, attempt) — retrying
/// clients sharing a schedule but not a seed never wake in lockstep.
double retry_backoff_ms(const RetryPolicy& policy, int attempt);

/// One logical request with bounded retries. Retries on transport
/// errors (connect refused/timeout, torn read) and on 408/429/5xx
/// responses, honoring a Retry-After of at most one day (86400 s; a
/// larger one is ignored like a malformed one, and the planned backoff
/// applies); retries also when the response carries an
/// `X-Payload-Fnv` header that does not match the FNV-1a
/// digest of the received body (a torn or garbled payload). Any other
/// response is returned as-is. REPRO_FAULT net_refuse/net_truncate/
/// net_delay/net_garble faults are applied here, one per attempt.
/// Exhausted retries surface the last failure as a Status.
StatusOr<Response> fetch_with_retry(const Endpoint& ep,
                                    const std::string& method,
                                    const std::string& path,
                                    const std::string& body,
                                    const RetryPolicy& policy,
                                    FetchStats* stats = nullptr,
                                    const CancelToken* cancel = nullptr);

}  // namespace repro::common::http
