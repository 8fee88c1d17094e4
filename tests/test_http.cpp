// The shared HTTP plumbing (common/http): request parsing under
// fragmentation, per-connection deadlines, size caps, the error-mapping
// contract, and the multi-threaded server's drain behaviour. The
// dribbled-request and silent-client cases are regression tests for the
// original obs_report serve loop, which read a connection exactly once
// with no timeout: a GET split across TCP segments was answered 405 and
// a connected-but-silent client wedged the (single-threaded) loop
// forever.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/http.hpp"
#include "common/parallel.hpp"

namespace repro::common::http {
namespace {

using namespace std::chrono_literals;

/// A connected AF_UNIX pair: [0] is the "server" end under test, [1]
/// the "client" end the test writes to. Stream semantics match TCP for
/// everything read_request cares about.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
  }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void send(const std::string& bytes) const {
    ASSERT_EQ(::write(fd[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_client() {
    ::close(fd[1]);
    fd[1] = -1;
  }
};

TEST(HttpReadRequest, ParsesCompleteGet) {
  SocketPair s;
  s.send("GET /metrics?live=1 HTTP/1.0\r\nHost: localhost\r\n"
         "X-Scrape-Agent:  prom \r\n\r\n");
  auto req = read_request(s.fd[0], ReadLimits{});
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/metrics?live=1");
  EXPECT_EQ(req->version, "HTTP/1.0");
  EXPECT_TRUE(req->body.empty());
  // Header names are lower-cased, values trimmed.
  ASSERT_NE(req->header("x-scrape-agent"), nullptr);
  EXPECT_EQ(*req->header("x-scrape-agent"), "prom");
  EXPECT_EQ(req->header("absent"), nullptr);
}

TEST(HttpReadRequest, ParsesPostWithBody) {
  SocketPair s;
  const std::string body = "{\"fold\": 2}";
  s.send("POST /score HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body);
  auto req = read_request(s.fd[0], ReadLimits{});
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->body, body);
}

// The satellite-a regression: a request delivered one fragment at a
// time (as TCP is free to do) must parse exactly like one delivered
// whole. The original handler read once and answered 405 to "GE".
TEST(HttpReadRequest, ReassemblesDribbledRequest) {
  SocketPair s;
  std::thread writer([&] {
    for (const char* part :
         {"GE", "T /sta", "tus HT", "TP/1.0\r", "\n\r", "\n"}) {
      std::this_thread::sleep_for(20ms);
      const std::string bytes(part);
      ASSERT_EQ(::write(s.fd[1], bytes.data(), bytes.size()),
                static_cast<ssize_t>(bytes.size()));
    }
  });
  auto req = read_request(s.fd[0], ReadLimits{});
  writer.join();
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/status");
}

// The other half of satellite a: a client that connects and sends
// nothing costs one deadline, not forever.
TEST(HttpReadRequest, SilentClientHitsDeadline) {
  SocketPair s;
  ReadLimits limits;
  limits.deadline_s = 0.15;
  const auto t0 = std::chrono::steady_clock::now();
  auto req = read_request(s.fd[0], limits);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kIoError);
  EXPECT_GE(elapsed, 0.1);
  EXPECT_LT(elapsed, 2.0);  // a deadline, not a hang
  Response resp;
  EXPECT_TRUE(response_for_read_error(req.status(), &resp));
  EXPECT_EQ(resp.status, 408);
}

TEST(HttpReadRequest, DeadlineCoversDribbledHeadersToo) {
  // A slow-loris client that trickles header bytes forever is still
  // bounded by the single per-connection deadline.
  SocketPair s;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    (void)::write(s.fd[1], "GET / HTTP/1.0\r\nX: ", 19);
    while (!stop.load()) {
      (void)::write(s.fd[1], "a", 1);
      std::this_thread::sleep_for(10ms);
    }
  });
  ReadLimits limits;
  limits.deadline_s = 0.15;
  auto req = read_request(s.fd[0], limits);
  stop.store(true);
  writer.join();
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kIoError);
}

TEST(HttpReadRequest, OversizedHeadersRejected) {
  SocketPair s;
  ReadLimits limits;
  limits.max_header_bytes = 64;
  s.send("GET /" + std::string(200, 'x') + " HTTP/1.0\r\n\r\n");
  auto req = read_request(s.fd[0], limits);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kOutOfRange);
  Response resp;
  EXPECT_TRUE(response_for_read_error(req.status(), &resp));
  EXPECT_EQ(resp.status, 413);
}

TEST(HttpReadRequest, OversizedBodyRejected) {
  SocketPair s;
  ReadLimits limits;
  limits.max_body_bytes = 16;
  s.send("POST /score HTTP/1.0\r\nContent-Length: 1000\r\n\r\n");
  auto req = read_request(s.fd[0], limits);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpReadRequest, MalformedRequestsRejected) {
  {
    SocketPair s;
    s.send("NONSENSE\r\n\r\n");  // no target / version
    auto req = read_request(s.fd[0], ReadLimits{});
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.status().code(), StatusCode::kParseError);
    Response resp;
    EXPECT_TRUE(response_for_read_error(req.status(), &resp));
    EXPECT_EQ(resp.status, 400);
  }
  {
    SocketPair s;
    s.send("GET status HTTP/1.0\r\n\r\n");  // target must start with /
    auto req = read_request(s.fd[0], ReadLimits{});
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.status().code(), StatusCode::kParseError);
  }
  {
    SocketPair s;
    s.send("POST / HTTP/1.0\r\nContent-Length: banana\r\n\r\n");
    auto req = read_request(s.fd[0], ReadLimits{});
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.status().code(), StatusCode::kParseError);
  }
}

TEST(HttpReadRequest, PeerCloseMidRequestIsSilentDataLoss) {
  SocketPair s;
  s.send("GET /stat");  // partial, then gone
  s.close_client();
  auto req = read_request(s.fd[0], ReadLimits{});
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kDataLoss);
  Response resp;
  EXPECT_FALSE(response_for_read_error(req.status(), &resp));
}

TEST(HttpResponse, ParseRoundTrip) {
  SocketPair s;
  Response out;
  out.status = 404;
  out.content_type = "application/json";
  out.body = "{\"error\": \"nope\"}\n";
  out.extra_headers.emplace_back("Retry-After", "1");
  ASSERT_TRUE(write_response(s.fd[0], out).ok());
  ::close(s.fd[0]);
  s.fd[0] = -1;

  std::string raw;
  char buf[512];
  ssize_t n;
  while ((n = ::read(s.fd[1], buf, sizeof buf)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  auto parsed = parse_response(raw);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->content_type, "application/json");
  EXPECT_EQ(parsed->body, out.body);
}

TEST(HttpServer, ServesConcurrentClientsAndDrains) {
  Server::Options opt;
  opt.num_threads = 4;
  std::atomic<int> handled{0};
  auto server = Server::start(opt, [&](const Request& req) {
    ++handled;
    Response resp;
    resp.body = req.method + " " + req.path + "\n";
    return resp;
  });
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      auto resp = fetch(port, "GET", "/c" + std::to_string(c));
      if (resp.ok() && resp->status == 200 &&
          resp->body == "GET /c" + std::to_string(c) + "\n") {
        ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(handled.load(), 8);

  (*server)->stop();
  const Server::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.served, 8u);
  // stop() is idempotent.
  (*server)->stop();
}

// The end-to-end form of the regression pair: a silent client and a
// dribbling client against a real server must each get their answer
// (408 and 200 respectively), and the server must keep serving others
// afterwards.
TEST(HttpServer, SilentAndDribblingClientsDoNotWedgeTheServer) {
  Server::Options opt;
  opt.num_threads = 2;
  opt.limits.deadline_s = 0.2;
  auto server = Server::start(opt, [](const Request& req) {
    Response resp;
    resp.body = "hello " + req.path + "\n";
    return resp;
  });
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const int port = (*server)->port();

  // Silent client: connect, send nothing, read the 408.
  auto silent = connect_loopback(port);
  ASSERT_TRUE(silent.ok());
  // Dribbling client: full GET, three fragments, short pauses.
  auto dribble = connect_loopback(port);
  ASSERT_TRUE(dribble.ok());
  for (const char* part : {"GET /slow", " HTTP/1.0", "\r\n\r\n"}) {
    std::this_thread::sleep_for(30ms);
    ASSERT_EQ(::write(*dribble, part, std::strlen(part)),
              static_cast<ssize_t>(std::strlen(part)));
  }
  std::string raw;
  char buf[512];
  ssize_t n;
  while ((n = ::read(*dribble, buf, sizeof buf)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(*dribble);
  auto dresp = parse_response(raw);
  ASSERT_TRUE(dresp.ok());
  EXPECT_EQ(dresp->status, 200);
  EXPECT_EQ(dresp->body, "hello /slow\n");

  // The silent connection resolves as a 408 once its deadline expires.
  raw.clear();
  while ((n = ::read(*silent, buf, sizeof buf)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(*silent);
  auto sresp = parse_response(raw);
  ASSERT_TRUE(sresp.ok());
  EXPECT_EQ(sresp->status, 408);

  // And the server is still alive for a well-behaved client.
  auto after = fetch(port, "GET", "/after");
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_EQ(after->status, 200);
  EXPECT_GE((*server)->stats().read_timeouts, 1u);
}

TEST(HttpServer, CancelTokenStopsTheServer) {
  CancelToken cancel;
  Server::Options opt;
  opt.num_threads = 2;
  opt.cancel = &cancel;
  auto server = Server::start(opt, [](const Request&) { return Response{}; });
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();
  ASSERT_TRUE(fetch(port, "GET", "/").ok());
  cancel.request_cancel();
  // The accept tick notices the token; stop() then just joins.
  (*server)->stop();
  EXPECT_FALSE(fetch(port, "GET", "/", "", "application/json", 0.5).ok());
}

// --- client: endpoints and bounded connect -------------------------------

TEST(HttpEndpoint, ParseAcceptsHostPortAndBarePort) {
  auto ep = parse_endpoint("127.0.0.1:8080");
  ASSERT_TRUE(ep.ok()) << ep.status().to_string();
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);
  EXPECT_EQ(ep->label(), "127.0.0.1:8080");

  // Loopback shorthands: a bare port, with or without the colon.
  for (const char* shorthand : {"9090", ":9090"}) {
    auto bare = parse_endpoint(shorthand);
    ASSERT_TRUE(bare.ok()) << shorthand;
    EXPECT_EQ(bare->host, "127.0.0.1");
    EXPECT_EQ(bare->port, 9090);
  }

  for (const char* bad :
       {"", ":", "127.0.0.1:", "host:0", "127.0.0.1:65536",
        "127.0.0.1:abc", "not-an-ip:80"}) {
    EXPECT_FALSE(parse_endpoint(bad).ok()) << "'" << bad << "'";
  }
}

/// A listener that never accepts, its accept queue pre-filled so a
/// fresh SYN gets no answer: the exact condition under which the old
/// blocking ::connect wedged a supervisor forever.
struct NeverAcceptingListener {
  int lfd = -1;
  int port = 0;
  std::vector<int> fillers;

  NeverAcceptingListener() {
    lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    EXPECT_EQ(::listen(lfd, 1), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port = ntohs(addr.sin_port);
    // Exhaust the backlog with non-blocking connects we never complete.
    for (int i = 0; i < 4; ++i) {
      const int c = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      EXPECT_GE(c, 0);
      ::connect(c, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
      fillers.push_back(c);
    }
  }
  ~NeverAcceptingListener() {
    for (int c : fillers) ::close(c);
    if (lfd >= 0) ::close(lfd);
  }
};

TEST(HttpConnect, DeadlineBoundsANeverAcceptingListener) {
  NeverAcceptingListener listener;
  Endpoint ep;
  ep.port = listener.port;
  const auto t0 = std::chrono::steady_clock::now();
  auto fd = connect_to(ep, /*deadline_s=*/0.3);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(fd.ok());  // would previously block in ::connect forever
  EXPECT_NE(fd.status().to_string().find("deadline"), std::string::npos)
      << fd.status().to_string();
  EXPECT_LT(elapsed, 5.0);
}

TEST(HttpConnect, RefusedPortFailsFastWithErrno) {
  // Bind-then-close: the port existed a moment ago, nothing listens now.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  Endpoint ep;
  ep.port = dead_port;
  auto fd = connect_to(ep, 2.0);
  EXPECT_FALSE(fd.ok());
}

// --- client: retry policy -----------------------------------------------

TEST(HttpRetry, BackoffIsDeterministicJitteredAndCapped) {
  RetryPolicy policy;
  policy.backoff_base_ms = 100;
  policy.backoff_max_ms = 400;
  policy.jitter_seed = 7;
  // Deterministic: the same (seed, attempt) always plans the same delay.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(retry_backoff_ms(policy, attempt),
              retry_backoff_ms(policy, attempt));
  }
  // Jittered into [0.5 * step, step] with the exponential step capped.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double step =
        std::min(100.0 * (1 << (attempt - 1)), policy.backoff_max_ms);
    const double d = retry_backoff_ms(policy, attempt);
    EXPECT_GE(d, 0.5 * step) << "attempt " << attempt;
    EXPECT_LE(d, step) << "attempt " << attempt;
  }
  // Different seeds plan different schedules (no lockstep wake-ups).
  RetryPolicy other = policy;
  other.jitter_seed = 8;
  bool any_diff = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    any_diff |=
        retry_backoff_ms(policy, attempt) != retry_backoff_ms(other, attempt);
  }
  EXPECT_TRUE(any_diff);
}

TEST(HttpRetry, RetriesConnectRefusedUntilExhausted) {
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  Endpoint ep;
  ep.port = ntohs(addr.sin_port);
  ::close(probe);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.skip_sleep = true;
  policy.request_deadline_s = 2.0;
  FetchStats stats;
  auto resp = fetch_with_retry(ep, "GET", "/", "", policy, &stats);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
}

TEST(HttpRetry, HonorsRetryAfterAndStopsOnSuccess) {
  std::atomic<int> hits{0};
  auto server = Server::start(Server::Options{}, [&](const Request&) {
    Response resp;
    if (hits.fetch_add(1) == 0) {
      resp.status = 503;
      resp.body = "warming up";
      resp.extra_headers.emplace_back("Retry-After", "2");
    } else {
      resp.status = 200;
      resp.body = "ready";
    }
    return resp;
  });
  ASSERT_TRUE(server.ok());

  Endpoint ep;
  ep.port = (*server)->port();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 1;  // planned delay far below Retry-After
  policy.backoff_max_ms = 4;
  policy.skip_sleep = true;
  struct Backoff {
    double delay_ms;
    bool honored;
  };
  std::vector<Backoff> waits;
  policy.on_backoff = [&](int, double delay_ms, bool honored) {
    waits.push_back({delay_ms, honored});
  };
  FetchStats stats;
  auto resp = fetch_with_retry(ep, "GET", "/", "", policy, &stats);
  (*server)->stop();
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "ready");
  EXPECT_EQ(stats.attempts, 2);  // 503 then 200, no third try
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_TRUE(waits[0].honored);          // server minimum won
  EXPECT_EQ(waits[0].delay_ms, 2000.0);   // Retry-After: 2
}

TEST(HttpRetry, RetryAfterAboveOneDayIsIgnored) {
  // 99999999999999999999 saturates a bare strtol; 9300000000 s does not,
  // but as a deadline in int64 nanoseconds it overflows all the same.
  // Both, like anything above 86400, must leave the planned backoff in
  // force; 86400 itself is honored.
  const std::pair<const char*, bool> kCases[] = {
      {"99999999999999999999", false},
      {"9300000000", false},
      {"86401", false},
      {"86400", true},
  };
  for (const auto& [value, honored] : kCases) {
    SCOPED_TRACE(value);
    std::atomic<int> hits{0};
    auto server = Server::start(Server::Options{}, [&](const Request&) {
      Response resp;
      if (hits.fetch_add(1) == 0) {
        resp.status = 503;
        resp.extra_headers.emplace_back("Retry-After", value);
      }
      return resp;
    });
    ASSERT_TRUE(server.ok());
    Endpoint ep;
    ep.port = (*server)->port();
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.backoff_base_ms = 1;
    policy.backoff_max_ms = 4;
    policy.skip_sleep = true;
    std::vector<std::pair<double, bool>> waits;
    policy.on_backoff = [&](int, double delay_ms, bool h) {
      waits.emplace_back(delay_ms, h);
    };
    auto resp = fetch_with_retry(ep, "GET", "/", "", policy);
    (*server)->stop();
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
    EXPECT_EQ(resp->status, 200);
    ASSERT_EQ(waits.size(), 1u);
    EXPECT_EQ(waits[0].second, honored);
    EXPECT_EQ(waits[0].first,
              honored ? 86400.0 * 1000 : retry_backoff_ms(policy, 1));
  }
}

TEST(HttpRetry, NonRetryableStatusReturnsImmediately) {
  std::atomic<int> hits{0};
  auto server = Server::start(Server::Options{}, [&](const Request&) {
    hits.fetch_add(1);
    Response resp;
    resp.status = 404;
    return resp;
  });
  ASSERT_TRUE(server.ok());
  Endpoint ep;
  ep.port = (*server)->port();
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.skip_sleep = true;
  FetchStats stats;
  auto resp = fetch_with_retry(ep, "GET", "/missing", "", policy, &stats);
  (*server)->stop();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(hits.load(), 1);
}

TEST(HttpRetry, PayloadDigestMismatchIsRetried) {
  // First response stamps an X-Payload-Fnv that does not match its
  // body (a torn transfer); the retry is answered honestly.
  std::atomic<int> hits{0};
  auto server = Server::start(Server::Options{}, [&](const Request&) {
    Response resp;
    resp.status = 200;
    resp.body = "payload";
    const bool torn = hits.fetch_add(1) == 0;
    resp.extra_headers.emplace_back(
        "X-Payload-Fnv", torn ? std::string(16, '0') : [] {
          char buf[24];
          std::snprintf(buf, sizeof buf, "%016llx",
                        static_cast<unsigned long long>(
                            fnv1a64("payload")));
          return std::string(buf);
        }());
    return resp;
  });
  ASSERT_TRUE(server.ok());
  Endpoint ep;
  ep.port = (*server)->port();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.skip_sleep = true;
  FetchStats stats;
  auto resp = fetch_with_retry(ep, "GET", "/", "", policy, &stats);
  (*server)->stop();
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->body, "payload");
  EXPECT_EQ(stats.attempts, 2);
}

TEST(HttpRetry, InjectedNetFaultsFireOncePerRequestOrdinal) {
  auto server = Server::start(Server::Options{}, [&](const Request&) {
    Response resp;
    resp.status = 200;
    resp.body = "ok";
    return resp;
  });
  ASSERT_TRUE(server.ok());
  Endpoint ep;
  ep.port = (*server)->port();

  // net_refuse:0 — the first HTTP request fails as connect-refused
  // without touching the wire; the retry goes through.
  auto spec = fault::parse_fault_spec("net_refuse:0");
  ASSERT_TRUE(spec.ok());
  fault::configure(*spec);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.skip_sleep = true;
  FetchStats stats;
  auto resp = fetch_with_retry(ep, "GET", "/", "", policy, &stats);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.faults_injected, 1);
  EXPECT_EQ(fault::net_requests_seen(), 2);

  // net_truncate:0 — the first response body is chopped in half, which
  // the X-Payload-Fnv check catches; the retry is served intact.
  auto server2 = Server::start(Server::Options{}, [&](const Request&) {
    Response resp;
    resp.status = 200;
    resp.body = "intact-payload";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64("intact-payload")));
    resp.extra_headers.emplace_back("X-Payload-Fnv", buf);
    return resp;
  });
  ASSERT_TRUE(server2.ok());
  Endpoint ep2;
  ep2.port = (*server2)->port();
  auto trunc = fault::parse_fault_spec("net_truncate:0");
  ASSERT_TRUE(trunc.ok());
  fault::configure(*trunc);
  FetchStats stats2;
  auto resp2 = fetch_with_retry(ep2, "GET", "/", "", policy, &stats2);
  fault::reset();
  (*server)->stop();
  (*server2)->stop();
  ASSERT_TRUE(resp2.ok()) << resp2.status().to_string();
  EXPECT_EQ(resp2->body, "intact-payload");
  EXPECT_EQ(stats2.attempts, 2);
  EXPECT_EQ(stats2.faults_injected, 1);
}

}  // namespace
}  // namespace repro::common::http
