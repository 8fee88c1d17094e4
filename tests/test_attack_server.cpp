// The attack service behind split_attack_server (core/attack_service):
// route-level validation, concurrent-client digest parity with the
// direct engine, the warm cache / store / retrain hydration ladder, the
// /shard memory / store / compute tiers, LRU eviction under a small
// --cache-mb, budget admission, and shutdown drain. Runs against a real common::http::Server on the loopback
// interface — the only thing these tests do not cover is the tool's
// argv parsing (scripts/check_server.sh exercises the binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.hpp"
#include "common/cancel.hpp"
#include "common/http.hpp"
#include "common/parallel.hpp"
#include "core/attack_service.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "synth/synth.hpp"

namespace repro::core {
namespace {

using common::hex64;

constexpr int kSplitLayer = 8;

/// Three small designs, synthesized once per process; every service in
/// this file shares the same suite, so reference digests are computed
/// once too.
const ChallengeSuite& suite() {
  static const ChallengeSuite s = [] {
    std::vector<synth::SynthDesign> designs;
    for (const char* name : {"sb1", "sb5", "sb18"}) {
      synth::SynthParams p = synth::preset(name);
      p.num_cells = 1200;
      designs.push_back(synth::generate(p));
    }
    return make_suite(designs, kSplitLayer);
  }();
  return s;
}

/// What the batch CLI would compute for fold i: train on the others,
/// score the held-out challenge, digest the complete result.
const std::vector<std::string>& reference_digests() {
  static const std::vector<std::string> digests = [] {
    const AttackConfig cfg = config_from_name("Imp-9");
    std::vector<std::string> out;
    for (std::size_t fold = 0; fold < suite().size(); ++fold) {
      const TrainedModel model =
          AttackEngine::train(suite().training_for(fold), cfg);
      const AttackResult res =
          AttackEngine::test(model, suite().challenge(fold));
      out.push_back(hex64(result_digest(res)));
    }
    return out;
  }();
  return digests;
}

std::unique_ptr<AttackService> make_service(AttackService::Options opt) {
  auto svc = AttackService::create(
      std::map<int, ChallengeSuite>{{kSplitLayer, suite()}}, std::move(opt));
  EXPECT_TRUE(svc.ok()) << svc.status().to_string();
  return std::move(*svc);
}

std::string score_body(std::size_t fold) {
  return "{\"layer\": " + std::to_string(kSplitLayer) +
         ", \"fold\": " + std::to_string(fold) + ", \"config\": \"Imp-9\"}";
}

/// Field extractor good enough for our own JSON: "key": "value" or
/// "key": value.
std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  if (body[begin] == '"') {
    ++begin;
    return body.substr(begin, body.find('"', begin) - begin);
  }
  std::size_t end = begin;
  while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  return body.substr(begin, end - begin);
}

TEST(AttackServer, ConcurrentClientsMatchTheDirectEngine) {
  auto service = make_service({});
  common::http::Server::Options opt;
  opt.num_threads = 4;
  opt.limits.deadline_s = 120;
  auto server = common::http::Server::start(
      opt, [&](const common::http::Request& req) {
        return service->handle(req);
      });
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  // Two full passes over the folds from concurrent clients: the first
  // pass trains (or waits on the singleflight), the second hits.
  constexpr int kClients = 6;
  std::vector<std::string> digests(kClients);
  std::vector<std::string> sources(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto resp = common::http::fetch(port, "POST", "/score",
                                      score_body(c % suite().size()),
                                      "application/json", 120.0);
      if (resp.ok() && resp->status == 200) {
        digests[c] = json_field(resp->body, "digest");
        sources[c] = json_field(resp->body, "cache");
      }
    });
  }
  for (std::thread& t : clients) t.join();
  (*server)->stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(digests[c], reference_digests()[c % suite().size()])
        << "client " << c << " (source " << sources[c] << ")";
  }
  // Exactly one training per fold: concurrent identical requests
  // collapsed into one hydration.
  EXPECT_EQ(service->cache_stats().inserts, suite().size());
  EXPECT_EQ(service->requests_scored(), static_cast<std::uint64_t>(kClients));
}

TEST(AttackServer, WarmRestartServesFromTheStoreWithoutRetraining) {
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "attack_server_store_test")
          .string();
  std::filesystem::remove_all(store_dir);

  AttackService::Options opt;
  opt.store_dir = store_dir;
  std::string first_digest;
  {
    auto service = make_service(opt);
    const auto resp = service->handle([&] {
      common::http::Request req;
      req.method = "POST";
      req.path = "/score";
      req.body = score_body(0);
      return req;
    }());
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(json_field(resp.body, "cache"), "trained");
    first_digest = json_field(resp.body, "digest");
  }  // service gone: warm cache lost, store persists

  auto service = make_service(opt);
  const auto resp = service->handle([&] {
    common::http::Request req;
    req.method = "POST";
    req.path = "/score";
    req.body = score_body(0);
    return req;
  }());
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(json_field(resp.body, "cache"), "store");
  EXPECT_EQ(json_field(resp.body, "digest"), first_digest);
  EXPECT_EQ(first_digest, reference_digests()[0]);
  std::filesystem::remove_all(store_dir);
}

/// First extra_header with this name ("" if absent) — the write side of
/// the response, not the client-parsed view.
std::string shard_header(const common::http::Response& resp,
                         const std::string& name) {
  for (const auto& [k, v] : resp.extra_headers) {
    if (k == name) return v;
  }
  return "";
}

common::http::Request shard_req(std::size_t fold = 0) {
  common::http::Request req;
  req.method = "POST";
  req.path = "/shard";
  req.body = score_body(fold);
  return req;
}

TEST(AttackServer, ShardRouteAnswersRetriesIdempotently) {
  const std::string store_dir =
      (std::filesystem::temp_directory_path() /
       "attack_server_shard_store_test")
          .string();
  std::filesystem::remove_all(store_dir);

  AttackService::Options opt;
  opt.store_dir = store_dir;

  std::string first_body;
  std::string run_key;
  {
    auto service = make_service(opt);
    const auto first = service->handle(shard_req());
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(shard_header(first, "X-Result-Source"), "computed");
    EXPECT_EQ(shard_header(first, "X-Result-Digest"),
              reference_digests()[0]);
    // The integrity stamp the remote campaign client checks before
    // accepting a body: FNV over the exact payload bytes.
    EXPECT_EQ(shard_header(first, "X-Payload-Fnv"),
              hex64(common::fnv1a64(first.body)));
    run_key = shard_header(first, "X-Run-Key");
    EXPECT_EQ(run_key.size(), 16u);

    // A torn-response retry re-POSTs the identical shard. The answer
    // must come from the result map — byte-identical, no second
    // training run.
    const auto second = service->handle(shard_req());
    ASSERT_EQ(second.status, 200) << second.body;
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(shard_header(second, "X-Result-Source"), "memory");
    EXPECT_EQ(shard_header(second, "X-Run-Key"), run_key);

    const auto stats = service->shard_stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
    EXPECT_EQ(stats.store_hits, 0u);
    first_body = first.body;
  }  // service gone: result map lost, store persists

  // A retry landing on a restarted (or different) server with the same
  // store: the persistent tier answers, still without re-training.
  auto service = make_service(opt);
  const auto resp = service->handle(shard_req());
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.body, first_body);
  EXPECT_EQ(shard_header(resp, "X-Result-Source"), "store");
  EXPECT_EQ(shard_header(resp, "X-Run-Key"), run_key);
  const auto stats = service->shard_stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.computed, 0u);
  EXPECT_EQ(stats.store_hits, 1u);
  std::filesystem::remove_all(store_dir);
}

TEST(AttackServer, ConcurrentIdenticalShardsComputeOnce) {
  auto service = make_service({});
  std::vector<common::http::Response> resps(2);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < resps.size(); ++c) {
    clients.emplace_back([&, c] { resps[c] = service->handle(shard_req()); });
  }
  for (std::thread& t : clients) t.join();

  std::vector<std::string> sources;
  for (const auto& resp : resps) {
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(shard_header(resp, "X-Result-Digest"), reference_digests()[0]);
    sources.push_back(shard_header(resp, "X-Result-Source"));
  }
  // The loser of the shard gate finds the winner's result in memory.
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<std::string>{"computed", "memory"}));
  EXPECT_EQ(shard_header(resps[0], "X-Payload-Fnv"),
            shard_header(resps[1], "X-Payload-Fnv"));
  EXPECT_EQ(service->shard_stats().computed, 1u);
}

TEST(AttackServer, DamagedStoredShardResultIsRecomputed) {
  const std::string store_dir =
      (std::filesystem::temp_directory_path() /
       "attack_server_damaged_shard_test")
          .string();
  std::filesystem::remove_all(store_dir);
  AttackService::Options opt;
  opt.store_dir = store_dir;
  {
    auto service = make_service(opt);
    ASSERT_EQ(service->handle(shard_req()).status, 200);
  }
  const std::string path =
      store_dir + "/" +
      result_artifact_name(
          fold_model_key(suite(), config_from_name("Imp-9"), 0));
  auto bytes = common::read_file(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
  (*bytes)[bytes->size() / 2] ^= 0x5a;
  ASSERT_TRUE(common::atomic_write_file(path, *bytes).ok());

  // A restarted server must not vouch for the damaged bytes.
  auto service = make_service(opt);
  const auto resp = service->handle(shard_req());
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(shard_header(resp, "X-Result-Source"), "computed");
  EXPECT_EQ(shard_header(resp, "X-Result-Digest"), reference_digests()[0]);
  EXPECT_EQ(service->shard_stats().computed, 1u);
  std::filesystem::remove_all(store_dir);
}

TEST(AttackServer, TinyCacheEvictsAndRetrains) {
  AttackService::Options opt;
  opt.cache_bytes = 1;  // every insert evicts the previous entry
  auto service = make_service(opt);
  const auto score = [&](std::size_t fold) {
    common::http::Request req;
    req.method = "POST";
    req.path = "/score";
    req.body = score_body(fold);
    return service->handle(req);
  };
  EXPECT_EQ(json_field(score(0).body, "cache"), "trained");
  EXPECT_EQ(json_field(score(1).body, "cache"), "trained");  // evicts 0
  // Fold 0 again: it was evicted, so this retrains (no store here).
  const auto again = score(0);
  EXPECT_EQ(json_field(again.body, "cache"), "trained");
  EXPECT_EQ(json_field(again.body, "digest"), reference_digests()[0]);
  EXPECT_GE(service->cache_stats().evictions, 2u);
}

TEST(AttackServer, RejectsMalformedAndUnknownRequests) {
  auto service = make_service({});
  const auto handle = [&](const std::string& method, const std::string& path,
                          const std::string& body = "") {
    common::http::Request req;
    req.method = method;
    req.path = path;
    req.body = body;
    return service->handle(req);
  };
  EXPECT_EQ(handle("POST", "/score", "this is not json").status, 400);
  EXPECT_EQ(handle("POST", "/score", "[1, 2]").status, 400);
  EXPECT_EQ(handle("POST", "/score", "{\"layer\": 99}").status, 400);
  // 2^32 + 8: narrowed to int it would wrap onto the layer-8 suite.
  EXPECT_EQ(handle("POST", "/score", "{\"layer\": 4294967304}").status, 400);
  EXPECT_EQ(handle("POST", "/score", "{\"fold\": 99}").status, 400);
  EXPECT_EQ(handle("POST", "/score", "{\"fold\": -1}").status, 400);
  EXPECT_EQ(
      handle("POST", "/score", "{\"config\": \"No-Such-Config\"}").status,
      400);
  EXPECT_EQ(handle("GET", "/score").status, 405);
  EXPECT_EQ(handle("POST", "/metrics").status, 405);
  EXPECT_EQ(handle("GET", "/nope").status, 404);
  EXPECT_EQ(handle("GET", "/healthz").status, 200);
  // None of those reached scoring.
  EXPECT_EQ(service->requests_scored(), 0u);
}

TEST(AttackServer, OversizedRequestRejectedAtTheHttpLayer) {
  auto service = make_service({});
  common::http::Server::Options opt;
  opt.num_threads = 1;
  opt.limits.max_body_bytes = 64;
  auto server = common::http::Server::start(
      opt, [&](const common::http::Request& req) {
        return service->handle(req);
      });
  ASSERT_TRUE(server.ok());
  const std::string big(4096, 'x');
  auto resp = common::http::fetch((*server)->port(), "POST", "/score",
                                  "{\"pad\": \"" + big + "\"}");
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 413);
  EXPECT_EQ((*server)->stats().rejected, 1u);
  (*server)->stop();
}

TEST(AttackServer, ExhaustedBudgetAnswers503WithRetryAfter) {
  common::Budget budget(1e-3, 0);  // 1ms wall budget: exceeded on arrival
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  AttackService::Options opt;
  opt.budget = &budget;
  auto service = make_service(opt);
  common::http::Request req;
  req.method = "POST";
  req.path = "/score";
  req.body = score_body(0);
  const auto resp = service->handle(req);
  EXPECT_EQ(resp.status, 503);
  bool has_retry_after = false;
  for (const auto& [name, value] : resp.extra_headers) {
    if (name == "Retry-After") has_retry_after = true;
  }
  EXPECT_TRUE(has_retry_after);
  EXPECT_EQ(service->requests_scored(), 0u);
}

TEST(AttackServer, CancelledServiceStopsAdmittingWork) {
  common::CancelToken cancel;
  AttackService::Options opt;
  opt.cancel = &cancel;
  auto service = make_service(opt);
  cancel.request_cancel();
  common::http::Request req;
  req.method = "POST";
  req.path = "/score";
  req.body = score_body(0);
  EXPECT_EQ(service->handle(req).status, 503);
  // Status and metrics stay readable during a drain.
  common::http::Request status_req;
  status_req.method = "GET";
  status_req.path = "/status";
  EXPECT_EQ(service->handle(status_req).status, 200);
}

TEST(AttackServer, MetricsExposeCacheCounters) {
  auto service = make_service({});
  common::http::Request score_req;
  score_req.method = "POST";
  score_req.path = "/score";
  score_req.body = score_body(0);
  ASSERT_EQ(service->handle(score_req).status, 200);
  ASSERT_EQ(service->handle(score_req).status, 200);  // warm hit

  common::http::Request req;
  req.method = "GET";
  req.path = "/metrics";
  const auto resp = service->handle(req);
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("server_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(resp.body.find("server_cache_inserts_total 1"),
            std::string::npos);
  EXPECT_NE(resp.body.find("server_requests_scored_total 2"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE server_cache_hits_total counter"),
            std::string::npos);

  // Every server_* line, pinned. The byte estimate of the cached model
  // depends on the forest, so it is checked as positive, not exact.
  std::string server_lines;
  std::size_t pos = 0;
  while (pos < resp.body.size()) {
    const std::size_t nl = resp.body.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    std::string line = resp.body.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("server_", 0) != 0 &&
        line.rfind("# TYPE server_", 0) != 0) {
      continue;
    }
    const std::string bytes = "server_cache_bytes ";
    if (line.rfind(bytes, 0) == 0) {
      EXPECT_GT(std::stoull(line.substr(bytes.size())), 0u) << line;
      line = bytes + "<positive>";
    }
    server_lines += line + "\n";
  }
  EXPECT_EQ(server_lines,
            "# TYPE server_cache_hits_total counter\n"
            "server_cache_hits_total 1\n"
            "# TYPE server_cache_misses_total counter\n"
            "server_cache_misses_total 2\n"
            "# TYPE server_cache_evictions_total counter\n"
            "server_cache_evictions_total 0\n"
            "# TYPE server_cache_inserts_total counter\n"
            "server_cache_inserts_total 1\n"
            "# TYPE server_cache_entries gauge\n"
            "server_cache_entries 1\n"
            "# TYPE server_cache_bytes gauge\n"
            "server_cache_bytes <positive>\n"
            "# TYPE server_requests_scored_total counter\n"
            "server_requests_scored_total 2\n"
            "# TYPE server_requests_rejected_total counter\n"
            "server_requests_rejected_total 0\n"
            "# TYPE server_bad_requests_total counter\n"
            "server_bad_requests_total 0\n"
            "# TYPE server_shard_requests_total counter\n"
            "server_shard_requests_total 0\n"
            "# TYPE server_shard_computed_total counter\n"
            "server_shard_computed_total 0\n"
            "# TYPE server_shard_memory_hits_total counter\n"
            "server_shard_memory_hits_total 0\n"
            "# TYPE server_shard_store_hits_total counter\n"
            "server_shard_store_hits_total 0\n");
}

}  // namespace
}  // namespace repro::core
