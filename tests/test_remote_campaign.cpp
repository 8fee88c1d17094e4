// The remote campaign backend (core/campaign_remote): the per-endpoint
// circuit breaker state machine, endpoint-list parsing, and the full
// dispatch path — a campaign supervisor launching RemoteShardExecutions
// against a live (fake) /shard server, failing over between endpoints,
// and degrading to local worker subprocesses when the fleet is down.
// The fake server speaks the real wire protocol (X-Run-Key,
// X-Payload-Fnv, sealed-payload bytes) but serves canned artifacts, so
// every fleet failure mode is deterministic and fast; the digest-parity
// contract against real attack servers is scripts/check_remote_campaign.sh
// and the /shard idempotency tests in test_attack_server.cpp.
#include "core/campaign_remote.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/checkpoint.hpp"
#include "common/diagnostics.hpp"
#include "common/http.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "core/campaign.hpp"
#include "core/cross_validation.hpp"

namespace repro::core {
namespace {

namespace fs = std::filesystem;
using common::DiagnosticSink;
using common::hex64;
using common::Status;
using common::StatusOr;

// --- circuit breaker ------------------------------------------------------

TEST(CircuitBreaker, OpensAtTheConsecutiveFailureThreshold) {
  CircuitBreaker cb(CircuitBreaker::Options{3, 1000});
  EXPECT_TRUE(cb.allow(0));
  cb.record_failure(0);
  EXPECT_TRUE(cb.allow(1));
  cb.record_failure(1);
  EXPECT_EQ(cb.state(2), BreakerState::kClosed);  // 2 < threshold
  EXPECT_TRUE(cb.allow(2));
  cb.record_failure(2);  // third consecutive failure: trip
  EXPECT_EQ(cb.state(3), BreakerState::kOpen);
  EXPECT_FALSE(cb.allow(3));
  EXPECT_FALSE(cb.allow(500));  // still cooling down
  EXPECT_EQ(cb.trips(), 1u);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker cb(CircuitBreaker::Options{3, 1000});
  cb.record_failure(0);
  cb.record_failure(1);
  cb.record_success();  // streak broken
  cb.record_failure(2);
  cb.record_failure(3);
  EXPECT_EQ(cb.state(4), BreakerState::kClosed);
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, CooldownExpiryAdmitsExactlyOneProbe) {
  CircuitBreaker cb(CircuitBreaker::Options{1, 1000});
  cb.record_failure(0);  // threshold 1: open immediately
  EXPECT_FALSE(cb.allow(999));
  // Cooldown over: half-open, a single probe goes through.
  EXPECT_TRUE(cb.allow(1000));
  EXPECT_EQ(cb.state(1000), BreakerState::kHalfOpen);
  EXPECT_FALSE(cb.allow(1001));  // probe in flight, everyone else waits
  cb.record_success();
  EXPECT_EQ(cb.state(1002), BreakerState::kClosed);
  EXPECT_TRUE(cb.allow(1002));
  EXPECT_EQ(cb.consecutive_failures(), 0);
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsTheCooldown) {
  CircuitBreaker cb(CircuitBreaker::Options{1, 1000});
  cb.record_failure(0);
  ASSERT_TRUE(cb.allow(1000));   // the half-open probe
  cb.record_failure(1000);       // probe failed: re-open
  EXPECT_EQ(cb.state(1001), BreakerState::kOpen);
  EXPECT_EQ(cb.trips(), 2u);
  EXPECT_FALSE(cb.allow(1999));  // fresh cooldown from the probe failure
  EXPECT_TRUE(cb.allow(2000));   // next probe window
  cb.record_success();
  EXPECT_EQ(cb.state(2001), BreakerState::kClosed);
}

// --- endpoint list --------------------------------------------------------

TEST(RemoteCampaign, ParsesEndpointLists) {
  auto eps = parse_endpoint_list("127.0.0.1:8080,127.0.0.1:9090");
  ASSERT_TRUE(eps.ok()) << eps.status().to_string();
  ASSERT_EQ(eps->size(), 2u);
  EXPECT_EQ((*eps)[0].label(), "127.0.0.1:8080");
  EXPECT_EQ((*eps)[1].label(), "127.0.0.1:9090");

  EXPECT_TRUE(parse_endpoint_list("8080").ok());  // loopback shorthand
  EXPECT_FALSE(parse_endpoint_list("").ok());
  EXPECT_FALSE(parse_endpoint_list(",").ok());
  EXPECT_FALSE(parse_endpoint_list("127.0.0.1:8080,bogus").ok());
}

// --- dispatch against a fake fleet ---------------------------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The canned artifact bytes the fake fleet serves for a shard. The
/// validator below recomputes the same function, so any corruption in
/// transit or on disk is caught.
std::string fake_payload(int layer, std::int64_t fold) {
  return "sealed-result L" + std::to_string(layer) + "_f" +
         std::to_string(fold);
}

constexpr std::uint64_t kFakeRunKey = 0x1122334455667788ull;

/// A fake attack server speaking the /shard wire protocol. `truncate_first`
/// chops the first N responses short of their stamped X-Payload-Fnv, so
/// the client's integrity check must reject and retry them.
struct FakeShardServer {
  std::unique_ptr<common::http::Server> server;
  std::atomic<int> requests{0};
  std::atomic<int> truncate_remaining{0};

  explicit FakeShardServer(int truncate_first = 0) {
    truncate_remaining = truncate_first;
    auto started = common::http::Server::start(
        common::http::Server::Options{},
        [this](const common::http::Request& req) {
          return handle(req);
        });
    EXPECT_TRUE(started.ok()) << started.status().to_string();
    if (started.ok()) server = std::move(*started);
  }
  ~FakeShardServer() {
    if (server != nullptr) server->stop();
  }

  int port() const { return server->port(); }
  common::http::Endpoint endpoint() const {
    common::http::Endpoint ep;
    ep.port = port();
    return ep;
  }

  common::http::Response handle(const common::http::Request& req) {
    requests.fetch_add(1);
    common::http::Response resp;
    if (req.path != "/shard") {
      resp.status = 404;
      return resp;
    }
    // Good-enough field scraping for the fixed request shape.
    const auto field = [&](const std::string& key) -> long {
      const std::string needle = "\"" + key + "\": ";
      const std::size_t at = req.body.find(needle);
      return at == std::string::npos
                 ? -1
                 : std::strtol(req.body.c_str() + at + needle.size(),
                               nullptr, 10);
    };
    const int layer = static_cast<int>(field("layer"));
    const std::int64_t fold = field("fold");
    std::string payload = fake_payload(layer, fold);
    resp.status = 200;
    resp.content_type = "application/octet-stream";
    resp.extra_headers.emplace_back("X-Run-Key", hex64(kFakeRunKey));
    resp.extra_headers.emplace_back("X-Payload-Fnv",
                                    hex64(common::fnv1a64(payload)));
    if (truncate_remaining.fetch_sub(1) > 0) {
      payload.resize(payload.size() / 2);  // torn body, honest header
    }
    resp.body = std::move(payload);
    return resp;
  }
};

/// Validator matching the fake fleet. A remotely-served shard carries
/// the payload through the real checkpoint (manifest + CRC, under the
/// server's run key); a local-fallback shard's shell worker writes the
/// same bytes as a plain `local.result`. Either way the bytes must
/// decode to the canned artifact.
StatusOr<std::uint64_t> fake_validator(const ShardSpec& spec,
                                       const std::string& shard_dir) {
  DiagnosticSink sink;
  std::string raw;
  auto ckpt = common::CheckpointManager::open_existing(shard_dir, sink);
  if (ckpt.ok()) {
    auto bytes =
        ckpt->read(ChallengeSuite::fold_result_name(spec.fold), sink);
    if (bytes.ok()) raw = std::move(*bytes);
  }
  if (raw.empty()) {
    std::ifstream f(shard_dir + "/local.result", std::ios::binary);
    if (!f) return Status::DataLoss(spec.id() + ": no artifact");
    raw.assign(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
  }
  if (raw != fake_payload(spec.layer, spec.fold)) {
    return Status::DataLoss(spec.id() + ": payload does not match");
  }
  return common::fnv1a64(raw);
}

/// Local fallback worker: a shell subprocess writing the canned bytes,
/// standing in for the real `split_attack --fold` spawn.
WorkerCommand fallback_worker() {
  return [](const ShardSpec& spec, const std::string& shard_dir,
            int attempt) {
    (void)attempt;
    common::SpawnOptions opt;
    opt.argv = {"/bin/sh", "-c",
                "printf 'sealed-result %s' \"$SHARD_ID\" > "
                "\"$SHARD_DIR/local.result\""};
    opt.env.emplace_back("SHARD_ID", spec.id());
    opt.env.emplace_back("SHARD_DIR", shard_dir);
    return opt;
  };
}

CampaignOptions fast_options(const std::string& dir, int layers,
                             std::int64_t folds) {
  CampaignOptions opt;
  opt.campaign_dir = dir;
  for (int i = 0; i < layers; ++i) opt.layers.push_back(4 + 2 * i);
  opt.folds_per_layer = folds;
  opt.max_workers = 2;
  opt.max_attempts = 3;
  opt.backoff_base_ms = 1;
  opt.backoff_max_ms = 4;
  opt.shard_timeout_s = 30;
  return opt;
}

RemoteCampaignOptions remote_options(
    std::vector<common::http::Endpoint> endpoints) {
  RemoteCampaignOptions ropt;
  ropt.endpoints = std::move(endpoints);
  ropt.request_attempts = 2;
  ropt.backoff_base_ms = 1;
  ropt.backoff_max_ms = 4;
  ropt.request_deadline_s = 30;
  ropt.skip_sleep = true;
  ropt.breaker.failure_threshold = 2;
  ropt.breaker.cooldown_ms = 50;
  return ropt;
}

/// An ephemeral port with nothing behind it (bind, read it, close).
int dead_port() {
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);
  return port;
}

common::http::Endpoint dead_endpoint() {
  common::http::Endpoint ep;
  ep.port = dead_port();
  return ep;
}

TEST(RemoteCampaign, DispatchesEveryShardToTheFleet) {
  const std::string dir = fresh_dir("remote_ok");
  FakeShardServer fleet;
  DiagnosticSink sink;
  CampaignSupervisor sup(fast_options(dir, 2, 2), fallback_worker(),
                         fake_validator, sink);
  RemoteDispatcher dispatcher(remote_options({fleet.endpoint()}),
                              fallback_worker());
  sup.set_launcher(dispatcher.launcher());
  sup.set_remote(&dispatcher);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->shards_ok, 4);
  ASSERT_TRUE(out->remote);
  EXPECT_EQ(out->remote->stats.remote_ok, 4u);
  EXPECT_EQ(out->remote->stats.local_fallbacks, 0u);
  EXPECT_EQ(out->remote->stats.failovers, 0u);
  EXPECT_GE(out->remote->stats.requests, 4u);
  ASSERT_EQ(out->remote->endpoints.size(), 1u);
  EXPECT_EQ(out->remote->endpoints[0].state, "closed");
  EXPECT_EQ(fleet.requests.load(), 4);
  // The fleet counters rode into the persisted state table.
  std::ifstream f(CampaignSupervisor::state_path(dir));
  const std::string state((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(state.find("\"remote\""), std::string::npos);
  EXPECT_NE(state.find("\"remote_ok\": 4"), std::string::npos);
  // ...and a file-only observer reads back exactly the outcome's fleet.
  auto snap = scan_campaign_dir(dir, /*stall_after_s=*/0);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_TRUE(snap->remote);
  EXPECT_EQ(snap->remote->stats.requests, out->remote->stats.requests);
  EXPECT_EQ(snap->remote->stats.retries, out->remote->stats.retries);
  EXPECT_EQ(snap->remote->stats.failovers, out->remote->stats.failovers);
  EXPECT_EQ(snap->remote->stats.breaker_trips,
            out->remote->stats.breaker_trips);
  EXPECT_EQ(snap->remote->stats.local_fallbacks,
            out->remote->stats.local_fallbacks);
  EXPECT_EQ(snap->remote->stats.remote_ok, out->remote->stats.remote_ok);
  ASSERT_EQ(snap->remote->endpoints.size(), out->remote->endpoints.size());
  for (std::size_t i = 0; i < snap->remote->endpoints.size(); ++i) {
    EXPECT_EQ(snap->remote->endpoints[i].label,
              out->remote->endpoints[i].label);
    EXPECT_EQ(snap->remote->endpoints[i].requests,
              out->remote->endpoints[i].requests);
    EXPECT_EQ(snap->remote->endpoints[i].failures,
              out->remote->endpoints[i].failures);
  }
}

TEST(RemoteCampaign, FailsOverToTheHealthyEndpoint) {
  const std::string dir = fresh_dir("remote_failover");
  FakeShardServer fleet;
  DiagnosticSink sink;
  CampaignOptions copt = fast_options(dir, 1, 2);
  copt.max_workers = 1;  // deterministic endpoint rotation
  CampaignSupervisor sup(copt, fallback_worker(), fake_validator, sink);
  // Endpoint 0 refuses every connection; the dispatcher must fail over
  // to endpoint 1 and still complete everything remotely.
  RemoteDispatcher dispatcher(
      remote_options({dead_endpoint(), fleet.endpoint()}),
      fallback_worker());
  sup.set_launcher(dispatcher.launcher());
  sup.set_remote(&dispatcher);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  ASSERT_TRUE(out->remote);
  EXPECT_EQ(out->remote->stats.remote_ok, 2u);
  EXPECT_EQ(out->remote->stats.local_fallbacks, 0u);
  EXPECT_GE(out->remote->stats.failovers, 1u);
  // The dead endpoint's breaker tripped (threshold 2, 2 shards tried it
  // at most — with round-robin at least one hit it first).
  ASSERT_EQ(out->remote->endpoints.size(), 2u);
  EXPECT_GE(out->remote->endpoints[0].failures, 1u);
  EXPECT_EQ(out->remote->endpoints[1].failures, 0u);
}

TEST(RemoteCampaign, TornResponsesAreRetriedToCompletion) {
  const std::string dir = fresh_dir("remote_torn");
  FakeShardServer fleet(/*truncate_first=*/1);
  DiagnosticSink sink;
  CampaignOptions copt = fast_options(dir, 1, 2);
  CampaignSupervisor sup(copt, fallback_worker(), fake_validator, sink);
  RemoteDispatcher dispatcher(remote_options({fleet.endpoint()}),
                              fallback_worker());
  sup.set_launcher(dispatcher.launcher());
  sup.set_remote(&dispatcher);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->remote->stats.remote_ok, 2u);
  // The chopped response failed the X-Payload-Fnv check and was
  // re-requested — visible as a same-endpoint retry, not a failover.
  EXPECT_GE(out->remote->stats.retries, 1u);
  EXPECT_EQ(out->remote->stats.failovers, 0u);
  EXPECT_GE(fleet.requests.load(), 3);
}

TEST(RemoteCampaign, FleetDownDegradesToLocalWorkers) {
  const std::string dir = fresh_dir("remote_fleet_down");
  DiagnosticSink sink;
  CampaignSupervisor sup(fast_options(dir, 1, 2), fallback_worker(),
                         fake_validator, sink);
  RemoteDispatcher dispatcher(
      remote_options({dead_endpoint(), dead_endpoint()}),
      fallback_worker());
  sup.set_launcher(dispatcher.launcher());
  sup.set_remote(&dispatcher);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  // Graceful degradation: every shard completed, locally.
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->shards_ok, 2);
  ASSERT_TRUE(out->remote);
  EXPECT_EQ(out->remote->stats.remote_ok, 0u);
  EXPECT_EQ(out->remote->stats.local_fallbacks, 2u);
}

TEST(RemoteCampaign, NoFallbackMeansRetryThenQuarantine) {
  const std::string dir = fresh_dir("remote_no_fallback");
  DiagnosticSink sink;
  CampaignOptions copt = fast_options(dir, 1, 1);
  copt.max_attempts = 2;
  CampaignSupervisor sup(copt, fallback_worker(), fake_validator, sink);
  RemoteCampaignOptions ropt = remote_options({dead_endpoint()});
  ropt.allow_local_fallback = false;
  RemoteDispatcher dispatcher(ropt, fallback_worker());
  sup.set_launcher(dispatcher.launcher());
  sup.set_remote(&dispatcher);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_FALSE(out->complete);
  EXPECT_EQ(out->shards_quarantined, 1);
  EXPECT_EQ(out->remote->stats.local_fallbacks, 0u);
  const ShardState& st = out->shards.front();
  ASSERT_FALSE(st.history.empty());
  EXPECT_EQ(st.history.front().outcome, "remote_failed");
}

}  // namespace
}  // namespace repro::core
