#include "common/http.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "common/binio.hpp"
#include "common/fault.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"

namespace repro::common::http {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline`, clamped to [0, 24h] for poll().
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  const long long ms = left.count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms, 24LL * 3600 * 1000));
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Appends freshly readable bytes to `buf`, waiting on poll() up to the
/// deadline. Returns Ok on progress (>= 1 byte), or the read-contract
/// error. `what` names the phase for the error message ("headers",
/// "body"). A CancelToken (client side only) cuts the wait short with
/// kFailedPrecondition — polls are sliced so cancellation is seen
/// within ~100ms even under a long deadline.
Status read_more(int fd, Clock::time_point deadline, std::string* buf,
                 const char* what, const CancelToken* cancel = nullptr) {
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::FailedPrecondition("read cancelled");
    }
    int ms = remaining_ms(deadline);
    if (ms == 0) {
      return Status::IoError(std::string("read deadline exceeded while "
                                         "waiting for request ") +
                             what);
    }
    if (cancel != nullptr) ms = std::min(ms, 100);
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int rc = ::poll(&p, 1, ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
    if (rc == 0) continue;  // re-check the deadline, then report it
    char tmp[4096];
    const ssize_t n = ::read(fd, tmp, sizeof tmp);
    if (n > 0) {
      buf->append(tmp, static_cast<std::size_t>(n));
      return Status::Ok();
    }
    if (n == 0) {
      return Status::DataLoss(std::string("connection closed before "
                                          "request ") +
                              what + " completed");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::IoError(std::string("read failed: ") +
                           std::strerror(errno));
  }
}

Status parse_request_head(std::string_view head, Request* out) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  // method SP request-target SP version
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Status::ParseError("malformed request line");
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target =
      request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || target.empty() || target.front() != '/') {
    return Status::ParseError("malformed request line");
  }
  if (version != "HTTP/1.0" && version != "HTTP/1.1") {
    return Status::ParseError("unsupported HTTP version");
  }
  out->method = std::string(method);
  std::transform(out->method.begin(), out->method.end(),
                 out->method.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  out->path = std::string(target);
  out->version = std::string(version);

  std::size_t pos = line_end == std::string_view::npos
                        ? head.size()
                        : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("malformed header line");
    }
    out->headers.emplace_back(lower(trim(line.substr(0, colon))),
                              std::string(trim(line.substr(colon + 1))));
  }
  return Status::Ok();
}

Status write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      p.revents = 0;
      (void)::poll(&p, 1, 1000);
      continue;
    }
    return Status::IoError(std::string("write failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

const std::string* Request::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

const std::string* Response::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

StatusOr<Request> read_request(int fd, const ReadLimits& limits) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limits.deadline_s));
  std::string buf;
  std::size_t head_end;
  // Phase 1: accumulate until the header terminator, however the client
  // fragments its writes.
  for (;;) {
    head_end = buf.find("\r\n\r\n");
    // The size check must cover both exits: a client can deliver an
    // oversized header section in one segment, terminator included.
    if ((head_end == std::string::npos ? buf.size() : head_end) >
        limits.max_header_bytes) {
      return Status::OutOfRange("request headers exceed " +
                                std::to_string(limits.max_header_bytes) +
                                " bytes");
    }
    if (head_end != std::string::npos) break;
    Status st = read_more(fd, deadline, &buf, "headers");
    if (!st.ok()) return st;
  }

  Request req;
  Status st = parse_request_head(std::string_view(buf).substr(0, head_end),
                                 &req);
  if (!st.ok()) return st;

  std::size_t content_length = 0;
  if (const std::string* cl = req.header("content-length")) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
    if (errno != 0 || end == cl->c_str() || *end != '\0') {
      return Status::ParseError("malformed Content-Length");
    }
    content_length = static_cast<std::size_t>(v);
  }
  if (content_length > limits.max_body_bytes) {
    return Status::OutOfRange("request body of " +
                              std::to_string(content_length) +
                              " bytes exceeds " +
                              std::to_string(limits.max_body_bytes));
  }

  // Phase 2: the body, under the same overall deadline.
  req.body = buf.substr(head_end + 4);
  while (req.body.size() < content_length) {
    st = read_more(fd, deadline, &req.body, "body");
    if (!st.ok()) return st;
  }
  req.body.resize(content_length);  // drop pipelined trailing bytes
  return req;
}

const char* status_reason(int code) {
  switch (code) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

Status write_response(int fd, const Response& resp) {
  char head[256];
  std::snprintf(head, sizeof head,
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n",
                resp.status, status_reason(resp.status),
                resp.content_type.c_str(), resp.body.size());
  std::string out(head);
  for (const auto& [k, v] : resp.extra_headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  return write_all(fd, out);
}

bool response_for_read_error(const Status& err, Response* out) {
  switch (err.code()) {
    case StatusCode::kIoError:
      out->status = 408;
      break;
    case StatusCode::kOutOfRange:
      out->status = 413;
      break;
    case StatusCode::kParseError:
      out->status = 400;
      break;
    default:
      return false;  // peer gone (kDataLoss) — nothing to answer
  }
  out->content_type = "text/plain; charset=utf-8";
  out->body = err.message() + "\n";
  return true;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Listener> Listener::bind_loopback(int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range");
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status st = Status::IoError(std::string("bind failed: ") +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Status::IoError(std::string("listen failed: ") +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound;
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status st = Status::IoError(std::string("getsockname failed: ") +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  Listener out;
  out.fd_ = fd;
  out.port_ = ntohs(bound.sin_port);
  return out;
}

int Listener::accept_for(int timeout_ms) {
  if (fd_ < 0) return -1;
  struct pollfd p;
  p.fd = fd_;
  p.events = POLLIN;
  p.revents = 0;
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc <= 0) return -1;
  // The listener is non-blocking: when several server threads wake for
  // the same connection, the losers get EAGAIN here and go back to
  // their poll tick.
  const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  return client >= 0 ? client : -1;
}

StatusOr<std::unique_ptr<Server>> Server::start(Options opt,
                                                Handler handler) {
  if (opt.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  auto listener = Listener::bind_loopback(opt.port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<Server> srv(
      new Server(std::move(opt), std::move(handler)));
  srv->listener_ = std::move(*listener);
  srv->threads_.reserve(static_cast<std::size_t>(srv->opt_.num_threads));
  for (int i = 0; i < srv->opt_.num_threads; ++i) {
    srv->threads_.emplace_back([s = srv.get()] { s->serve_loop(); });
  }
  return srv;
}

Server::~Server() { stop(); }

void Server::serve_loop() {
  constexpr int kTickMs = 100;
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (opt_.cancel != nullptr && opt_.cancel->cancelled()) return;
    const int client = listener_.accept_for(kTickMs);
    if (client < 0) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto req = read_request(client, opt_.limits);
    Response resp;
    bool respond = true;
    if (req.ok()) {
      resp = handler_(*req);
    } else {
      respond = response_for_read_error(req.status(), &resp);
      if (req.status().code() == StatusCode::kIoError) {
        read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      } else if (respond) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (respond) {
      if (write_response(client, resp).ok()) {
        served_.fetch_add(1, std::memory_order_relaxed);
      } else {
        write_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!req.ok()) {
        // Early reject: request bytes may still sit unread in the
        // receive queue, and close() would then RST the connection and
        // destroy the response before the client reads it. Signal we
        // are done writing and briefly drain until the peer closes.
        ::shutdown(client, SHUT_WR);
        const auto drain_deadline =
            Clock::now() + std::chrono::milliseconds(500);
        char scratch[4096];
        for (;;) {
          struct pollfd p;
          p.fd = client;
          p.events = POLLIN;
          p.revents = 0;
          if (::poll(&p, 1, remaining_ms(drain_deadline)) <= 0) break;
          const ssize_t n = ::read(client, scratch, sizeof scratch);
          if (n == 0) break;  // peer closed: safe to close without RST
          if (n < 0 && errno != EINTR) break;
          if (remaining_ms(drain_deadline) == 0) break;
        }
      }
    }
    ::close(client);
  }
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  listener_.close();
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.write_errors = write_errors_.load(std::memory_order_relaxed);
  return s;
}

std::string Endpoint::label() const {
  return host + ":" + std::to_string(port);
}

StatusOr<Endpoint> parse_endpoint(const std::string& text) {
  Endpoint ep;
  const std::size_t colon = text.rfind(':');
  std::string host = colon == std::string::npos ? std::string("127.0.0.1")
                                                : text.substr(0, colon);
  const std::string num =
      colon == std::string::npos ? text : text.substr(colon + 1);
  if (host.empty()) host = "127.0.0.1";
  const std::optional<long long> port = parse_int(num, 1, 65535);
  if (!port) {
    return Status::InvalidArgument("endpoint '" + text +
                                   "' is not host:port");
  }
  in_addr probe;
  if (::inet_pton(AF_INET, host.c_str(), &probe) != 1) {
    return Status::InvalidArgument("endpoint host '" + host +
                                   "' is not an IPv4 literal");
  }
  ep.host = host;
  ep.port = static_cast<int>(*port);
  return ep;
}

/// Clears O_NONBLOCK on a connected socket: the flag exists only so the
/// handshake can be deadline-bounded; callers expect an ordinary
/// blocking fd (raw read/write without an EAGAIN loop).
StatusOr<int> restore_blocking(int fd, const Endpoint& ep) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    const Status st =
        Status::IoError("connect to " + ep.label() +
                        ": cannot restore blocking mode: " +
                        std::strerror(errno));
    ::close(fd);
    return st;
  }
  return fd;
}

StatusOr<int> connect_to(const Endpoint& ep, double deadline_s) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("host '" + ep.host +
                                   "' is not an IPv4 literal");
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    return restore_blocking(fd, ep);  // loopback fast path: done
  }
  if (errno != EINPROGRESS && errno != EINTR) {
    const Status st = Status::IoError("connect to " + ep.label() +
                                      " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  // Handshake in flight: wait for writability under the deadline, then
  // fetch the final verdict from SO_ERROR (the non-blocking connect
  // contract — POLLOUT fires for refusal too).
  for (;;) {
    const int ms = remaining_ms(deadline);
    if (ms == 0) {
      ::close(fd);
      return Status::IoError("connect to " + ep.label() +
                             " deadline exceeded");
    }
    struct pollfd p;
    p.fd = fd;
    p.events = POLLOUT;
    p.revents = 0;
    const int rc = ::poll(&p, 1, ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IoError(std::string("poll failed: ") +
                                        std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (rc == 0) continue;  // re-check the deadline, then report it
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err != 0) {
      const Status st = Status::IoError("connect to " + ep.label() +
                                        " failed: " + std::strerror(err));
      ::close(fd);
      return st;
    }
    return restore_blocking(fd, ep);
  }
}

StatusOr<int> connect_loopback(int port, double deadline_s) {
  Endpoint ep;
  ep.port = port;
  return connect_to(ep, deadline_s);
}

StatusOr<Response> parse_response(std::string_view raw) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return Status::ParseError("no header terminator in response");
  }
  const std::string_view head = raw.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  // "HTTP/1.0 200 OK"
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos ||
      status_line.substr(0, 5) != "HTTP/") {
    return Status::ParseError("malformed status line");
  }
  Response resp;
  resp.status = std::atoi(std::string(status_line.substr(sp + 1)).c_str());
  std::size_t pos =
      line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string name = lower(trim(line.substr(0, colon)));
    const std::string value(trim(line.substr(colon + 1)));
    if (name == "content-type") resp.content_type = value;
    resp.headers.emplace_back(name, value);
  }
  resp.body = std::string(raw.substr(head_end + 4));
  return resp;
}

StatusOr<Response> fetch(const Endpoint& ep, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& content_type,
                         double deadline_s, const CancelToken* cancel) {
  auto fd = connect_to(ep, deadline_s);
  if (!fd.ok()) return fd.status();
  std::string req = method + " " + path + " HTTP/1.0\r\n";
  if (!body.empty()) {
    req += "Content-Type: " + content_type + "\r\n";
  }
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  Status st = write_all(*fd, req);
  if (!st.ok()) {
    ::close(*fd);
    return st;
  }
  ::shutdown(*fd, SHUT_WR);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  std::string raw;
  for (;;) {
    Status rd = read_more(*fd, deadline, &raw, "response", cancel);
    if (rd.code() == StatusCode::kDataLoss) break;  // EOF: response done
    if (!rd.ok()) {
      ::close(*fd);
      return rd;
    }
  }
  ::close(*fd);
  return parse_response(raw);
}

StatusOr<Response> fetch(int port, const std::string& method,
                         const std::string& path, const std::string& body,
                         const std::string& content_type,
                         double deadline_s) {
  Endpoint ep;
  ep.port = port;
  return fetch(ep, method, path, body, content_type, deadline_s);
}

double retry_backoff_ms(const RetryPolicy& policy, int attempt) {
  if (attempt < 1) attempt = 1;
  double base = policy.backoff_base_ms;
  for (int i = 1; i < attempt && base < policy.backoff_max_ms; ++i) {
    base *= 2.0;
  }
  base = std::min(base, policy.backoff_max_ms);
  // 53 high-quality bits -> u in [0, 1) -> factor in [0.5, 1.0).
  const std::uint64_t h =
      derive_seed(policy.jitter_seed, static_cast<std::uint64_t>(attempt));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return base * (0.5 + 0.5 * u);
}

namespace {

/// Integer seconds from a Retry-After header value, at most one day; -1
/// when absent, not a plain number (HTTP dates are out of scope for this
/// client), or larger. The bound keeps the honoured delay far from the
/// int64 nanoseconds the sleep deadline is computed in.
long retry_after_seconds(const Response& resp) {
  const std::string* v = resp.header("retry-after");
  if (v == nullptr) return -1;
  return static_cast<long>(parse_int(*v, 0, 86400).value_or(-1));
}

bool retryable_status(int status) {
  return status == 408 || status == 429 || status >= 500;
}

}  // namespace

StatusOr<Response> fetch_with_retry(const Endpoint& ep,
                                    const std::string& method,
                                    const std::string& path,
                                    const std::string& body,
                                    const RetryPolicy& policy,
                                    FetchStats* stats,
                                    const CancelToken* cancel) {
  FetchStats local;
  FetchStats& fs = stats != nullptr ? *stats : local;
  fs = FetchStats{};
  const int max_attempts = std::max(1, policy.max_attempts);
  Status last = Status::IoError("no attempts made");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::FailedPrecondition("fetch cancelled");
    }
    ++fs.attempts;
    const fault::NetAction act = fault::on_net_request();
    if (act != fault::NetAction::kNone) ++fs.faults_injected;
    StatusOr<Response> resp =
        Status::IoError("injected fault before request");
    double retry_after_ms = -1.0;
    if (act == fault::NetAction::kRefuse) {
      last = Status::IoError("connect to " + ep.label() +
                             " failed: Connection refused (injected)");
    } else if (act == fault::NetAction::kDelay) {
      last = Status::IoError("fetch from " + ep.label() +
                             " deadline exceeded (injected delay)");
    } else {
      resp = fetch(ep, method, path, body, "application/json",
                   policy.request_deadline_s, cancel);
      if (resp.ok()) {
        if (act == fault::NetAction::kTruncate) {
          resp->body.resize(resp->body.size() / 2);
        } else if (act == fault::NetAction::kGarble) {
          fault::corrupt_bytes(resp->body);
        }
        // Payload integrity: a server that stamps X-Payload-Fnv promises
        // fnv1a64(body); a mismatch is a torn or garbled transfer and is
        // retried like any transport failure.
        const std::string* want = resp->header("x-payload-fnv");
        if (want != nullptr) {
          if (*want != hex64(fnv1a64(resp->body))) {
            last = Status::DataLoss("payload digest mismatch from " +
                                    ep.label() + " (torn response)");
            resp = last;
          }
        }
      }
      if (resp.ok()) {
        if (!retryable_status(resp->status)) return resp;
        const long ra = retry_after_seconds(*resp);
        if (ra >= 0) retry_after_ms = 1000.0 * static_cast<double>(ra);
        last = Status::IoError(ep.label() + " answered " +
                               std::to_string(resp->status) + " " +
                               status_reason(resp->status));
      } else if (act == fault::NetAction::kNone ||
                 act == fault::NetAction::kTruncate ||
                 act == fault::NetAction::kGarble) {
        last = resp.status();
      }
    }
    if (attempt == max_attempts) break;
    double delay_ms = retry_backoff_ms(policy, attempt);
    const bool honored = retry_after_ms > delay_ms;
    if (honored) delay_ms = retry_after_ms;
    if (policy.on_backoff) policy.on_backoff(attempt, delay_ms, honored);
    ++fs.retries;
    if (!policy.skip_sleep) {
      // Chunked so a CancelToken cuts the wait short (a terminating
      // supervisor must not sit out a multi-second backoff).
      const auto until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 delay_ms));
      while (Clock::now() < until) {
        if (cancel != nullptr && cancel->cancelled()) {
          return Status::FailedPrecondition("fetch cancelled");
        }
        const auto left = until - Clock::now();
        std::this_thread::sleep_for(
            std::min<Clock::duration>(left,
                                      std::chrono::milliseconds(25)));
      }
    }
  }
  return last;
}

}  // namespace repro::common::http
