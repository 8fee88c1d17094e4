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
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
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
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "synth/synth.hpp"

namespace {

using namespace repro;

struct Args {
  std::string lef;
  std::vector<std::string> train;
  std::string victim;
  std::vector<int> splits;  ///< layers to serve; empty = {8}
  bool demo = false;
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
  flags.flag("--demo", &a.demo)
      .text("--lef", "FILE", &a.lef)
      .text("--train", "FILE", &a.train)
      .text("--victim", "FILE", &a.victim)
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
  if (!a.demo && (a.lef.empty() || a.train.empty() || a.victim.empty())) {
    flags.fail("file mode needs --lef, --train and --victim");
  }
  if (a.splits.empty()) a.splits.push_back(8);
  return a;
}

/// Builds the per-layer LOO suites. Challenge order is [victim,
/// training...] — the exact order `split_attack --loo` uses — so fold
/// indices (and therefore result digests) line up between the server
/// and the batch CLI.
bool build_suites(const Args& args,
                  std::map<int, core::ChallengeSuite>* suites) {
  if (args.demo) {
    const double scale = synth::scale_from_env();
    std::fprintf(stderr, "[demo] generating the built-in suite (scale "
                 "%.2f)...\n", scale);
    const auto designs = synth::generate_benchmark_suite(scale);
    for (const int split : args.splits) {
      suites->emplace(split, core::make_suite(designs, split));
    }
    return true;
  }

  std::ifstream lef_in(args.lef);
  if (!lef_in) {
    std::fprintf(stderr, "error: cannot open %s\n", args.lef.c_str());
    return false;
  }
  common::DiagnosticSink lef_sink(args.lef);
  common::StatusOr<lefdef::LefContents> lef =
      lefdef::read_lef(lef_in, lef_sink);
  if (!lef.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", args.lef.c_str(),
                 lef.status().to_string().c_str());
    lef_sink.print(std::cerr);
    return false;
  }
  const auto lib = std::make_shared<const netlist::Library>(lef->lib);
  for (const int split : args.splits) {
    if (split > lef->tech.num_via_layers()) {
      std::fprintf(stderr,
                   "error: --split %d outside the technology's via stack "
                   "[1, %d]\n",
                   split, lef->tech.num_via_layers());
      return false;
    }
    core::DefLoadOptions load_opt;
    load_opt.split_layer = split;
    // A server with a missing training design would silently serve a
    // different suite (different run keys, no digest parity with the
    // batch CLI over the same files) — fail fast instead.
    load_opt.strict = true;

    common::DiagnosticSink sink;
    core::DefBatch batch =
        core::load_challenges_from_defs(args.train, *lef, load_opt, sink);
    if (batch.num_skipped > 0) {
      sink.print(std::cerr);
      std::fprintf(stderr,
                   "error: %d training design(s) failed to load\n",
                   batch.num_skipped);
      return false;
    }
    common::DiagnosticSink victim_sink;
    common::StatusOr<splitmfg::SplitChallenge> v =
        core::load_challenge_from_def(args.victim, *lef, lib, load_opt,
                                      victim_sink);
    if (!v.ok()) {
      std::fprintf(stderr, "error: victim %s: %s\n", args.victim.c_str(),
                   v.status().to_string().c_str());
      victim_sink.print(std::cerr);
      return false;
    }
    std::vector<splitmfg::SplitChallenge> all;
    all.reserve(args.train.size() + 1);
    all.push_back(std::move(v).value());
    for (splitmfg::SplitChallenge& ch : batch.take_loaded()) {
      all.push_back(std::move(ch));
    }
    suites->emplace(split, core::ChallengeSuite(std::move(all)));
  }
  return true;
}

int run(const Args& args) {
  common::install_stop_signals();
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client is not fatal
  common::CancelToken& cancel = common::global_cancel_token();
  common::Budget budget(args.deadline_s, args.max_rss_mb);
  // The obs registry feeds /metrics; logical time keeps any trace
  // output deterministic, and nothing here wants wall-clock spans.
  common::obs::set_enabled(true);

  std::map<int, core::ChallengeSuite> suites;
  if (!build_suites(args, &suites)) return 1;
  for (const auto& [layer, suite] : suites) {
    std::fprintf(stderr, "layer %d: %zu designs (%zu folds)\n", layer,
                 suite.size(), suite.size());
  }

  core::AttackService::Options sopt;
  sopt.cache_bytes = static_cast<std::size_t>(args.cache_mb) << 20;
  sopt.store_dir = args.store_dir;
  sopt.default_threshold = args.threshold;
  sopt.budget = budget.unlimited() ? nullptr : &budget;
  sopt.cancel = &cancel;
  auto svc = core::AttackService::create(std::move(suites), sopt);
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
