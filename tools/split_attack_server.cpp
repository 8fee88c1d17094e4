// split_attack_server - attack-as-a-service daemon with a warm model
// cache.
//
// Loads one leave-one-out challenge suite per requested split layer at
// startup, then serves concurrent attack/score requests over HTTP/1.0
// on the loopback interface (the same minimal protocol obs_report
// speaks; common/http owns the sockets). A score request names a
// (layer, fold, config) triple; the server trains the fold's model on
// first use, keeps the deserialized ensemble (model + prebuilt
// FlatForest) warm in an LRU cache, and answers repeats straight from
// it — so the second client pays scoring cost only, not training cost.
// With --store-dir the trained models also persist as CRC-sealed
// checkpoint artifacts: a restarted server re-hydrates from disk
// instead of retraining (scripts/check_server.sh kills the server
// mid-request and proves the restart serves from the store).
//
// Example (any usage error prints the full flag list):
//   split_attack_server --demo --split 8 --split 6 --store-dir DIR
//
//   --split is repeatable: each layer gets its own suite, selected per
//   request by the "layer" field. Default: layer 8 only.
//   --port 0 (the default) picks a free port; the bound address is
//   printed as "serving on 127.0.0.1:<port>" and flushed, so harnesses
//   can parse it.
//   --threads sizes the HTTP handler pool (concurrent requests), not a
//   compute pool: each handler scores inline (common::ScopedInline),
//   which is what makes server digests bit-identical to batch
//   `split_attack --loo` at any thread count.
//   --cache-mb bounds the warm-model LRU (0 disables caching);
//   --store-dir enables the persistent model store.
//   --deadline-s / --max-rss-mb arm the admission budget: under soft
//   pressure requests are served degraded (and say so); an exceeded
//   budget answers 503 + Retry-After.
//   --read-deadline-s / --max-request-mb bound each connection's read
//   (silent or oversized clients cost one deadline, never a wedged
//   handler).
//
// Endpoints:
//   POST /score    {"layer": L, "fold": K, "config": "Imp-9",
//                   "threshold": 0.5} -> result JSON incl. the fold's
//                  result digest and "cache": "hit" | "store" | "trained"
//   POST /shard    {"layer": L, "fold": K, "config": "Imp-9"} -> the
//                  fold's sealed result-artifact bytes (what a campaign
//                  worker writes), X-Run-Key / X-Result-Digest /
//                  X-Payload-Fnv headers. Idempotent: a re-request is
//                  answered from memory or the store, never retrained —
//                  the work unit behind `split_campaign --remote`.
//   GET  /status   suites, cache and request counters as JSON
//   GET  /metrics  Prometheus text: obs registry + cache/request series
//   GET  /healthz  liveness probe
//
// SIGINT/SIGTERM drain: in-flight requests finish, the listener closes,
// a shutdown summary is printed, exit 0.
//
// Exit codes: 0 clean shutdown (incl. signal-requested drain),
// 1 runtime failure, 2 usage error.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/flags.hpp"
#include "common/http.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "core/attack_service.hpp"
#include "core/cross_validation.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"

namespace {

using namespace repro;

struct Args {
  core::SuiteSource source;
  std::vector<int> splits;  ///< layers to serve; empty = {8}
  int port = 0;
  int threads = 4;
  int cache_mb = 256;
  std::string store_dir;
  double threshold = 0.5;
  double deadline_s = 0;  ///< 0 = no wall-clock budget
  int max_rss_mb = 0;     ///< 0 = no memory budget
  double read_deadline_s = 5.0;
  int max_request_mb = 1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  common::FlagTable flags(argv[0]);
  a.source.bind(flags)
      .integer("--split", "N", &a.splits, 1, 64)
      .integer("--port", "P", &a.port, 0, 65535)
      .integer("--threads", "N", &a.threads, 1, 256)
      .integer("--cache-mb", "MB", &a.cache_mb, 0, 1 << 20)
      .text("--store-dir", "DIR", &a.store_dir)
      .number("--threshold", "T", &a.threshold, 0.0, 1.0)
      .number("--deadline-s", "S", &a.deadline_s, 0.001, 1e9)
      .integer("--max-rss-mb", "N", &a.max_rss_mb, 1, 1 << 20)
      .number("--read-deadline-s", "S", &a.read_deadline_s, 0.01, 3600)
      .integer("--max-request-mb", "N", &a.max_request_mb, 1, 1024);
  flags.parse_or_exit(argc, argv);
  if (const std::string why = a.source.usage_error(); !why.empty()) {
    flags.fail(why);
  }
  if (a.splits.empty()) a.splits.push_back(8);
  return a;
}

int run(const Args& args) {
  common::install_stop_signals();
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client is not fatal
  common::CancelToken& cancel = common::global_cancel_token();
  common::Budget budget(args.deadline_s, args.max_rss_mb);
  // The obs registry feeds /metrics; logical time keeps any trace
  // output deterministic, and nothing here wants wall-clock spans.
  common::obs::set_enabled(true);

  // One suite per layer, in split_attack --loo's [victim, training...]
  // order, so fold indices and digests line up with the batch CLI. A
  // server missing a training design would silently serve a different
  // suite, so file mode always loads strictly.
  common::StatusOr<core::LoadedSuites> loaded = core::load_suites(
      args.source, args.splits, {.strict = true}, std::cerr);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  for (const auto& [layer, suite] : loaded->suites) {
    std::fprintf(stderr, "layer %d: %zu designs (%zu folds)\n", layer,
                 suite.size(), suite.size());
  }

  core::AttackService::Options sopt;
  sopt.cache_bytes = static_cast<std::size_t>(args.cache_mb) << 20;
  sopt.store_dir = args.store_dir;
  sopt.default_threshold = args.threshold;
  sopt.budget = budget.unlimited() ? nullptr : &budget;
  sopt.cancel = &cancel;
  auto svc = core::AttackService::create(std::move(loaded->suites), sopt);
  if (!svc.ok()) {
    std::fprintf(stderr, "error: %s\n", svc.status().to_string().c_str());
    return 1;
  }
  core::AttackService& service = **svc;

  common::http::Server::Options hopt;
  hopt.port = args.port;
  hopt.num_threads = args.threads;
  hopt.limits.deadline_s = args.read_deadline_s;
  hopt.limits.max_body_bytes =
      static_cast<std::size_t>(args.max_request_mb) << 20;
  hopt.cancel = &cancel;
  auto server = common::http::Server::start(
      hopt, [&service](const common::http::Request& req) {
        return service.handle(req);
      });
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().to_string().c_str());
    return 1;
  }

  // Printed to stdout (and flushed) so a harness spawning us with port
  // 0 can parse the port it actually got.
  std::printf("serving on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);

  while (!cancel.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Drain: handler threads finish their in-flight requests, then join.
  (*server)->stop();

  const common::http::Server::Stats hs = (*server)->stats();
  const core::ArtifactCache::Stats cs = service.cache_stats();
  std::fprintf(stderr,
               "shutdown: %llu accepted, %llu served, %llu scored; cache "
               "%llu hits / %llu misses / %llu evictions (%zu entries, "
               "%zu bytes)\n",
               static_cast<unsigned long long>(hs.accepted),
               static_cast<unsigned long long>(hs.served),
               static_cast<unsigned long long>(service.requests_scored()),
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.evictions), cs.entries,
               cs.bytes);
  const core::AttackService::ShardStats ss = service.shard_stats();
  if (ss.requests != 0) {
    std::fprintf(stderr,
                 "shards: %llu served (%llu computed, %llu memory, "
                 "%llu store)\n",
                 static_cast<unsigned long long>(ss.requests),
                 static_cast<unsigned long long>(ss.computed),
                 static_cast<unsigned long long>(ss.memory_hits),
                 static_cast<unsigned long long>(ss.store_hits));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
