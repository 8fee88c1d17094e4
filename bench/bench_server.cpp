// Attack-server serving-path harness (not a paper table).
//
// Drives core::AttackService through a real common::http::Server on the
// loopback interface with closed-loop clients (each client issues its
// next request the moment the previous response lands) and emits
// BENCH_server.json so the serving-path trajectory of the repo is
// machine-readable PR over PR:
//
//   {
//     "bench": "server", "suite_scale": ..., "folds": ...,
//     "cold": {"threads": ..., "requests": ..., "mean_ms": ...,
//              "p50_ms": ..., "p99_ms": ..., "seconds": ...},
//     "warm_runs": [{"threads": 1, "clients": 1, "requests": ...,
//                    "p50_ms": ..., "p99_ms": ..., "requests_per_s": ...,
//                    "oversubscribed": false}, ...],
//     "cold_vs_warm": {"cold_mean_ms": ..., "warm_mean_ms": ...,
//                      "speedup": ...},
//     "shard": {"cold_ms_per_fold": ..., "replay_ms_per_fold": ...,
//               "replay_speedup": ..., "computed": ..., "memory_hits": ...},
//     "digests_match_direct": true, "digests_identical_across_runs": true
//   }
//
// Cold phase: a fresh service (empty cache, no store) scored once per
// fold — every request pays training. Warm sweep: the same (now warm)
// service behind a server at 1/2/4/8 handler threads with as many
// closed-loop clients; every request is a cache hit, so p50/p99 and
// requests/s measure the serving path itself (socket, parse, hydrate
// lookup, FlatForest::predict_batch scoring, response write).
//
// Every response digest — cold, warm, at every thread count — must
// equal the digest computed by driving AttackEngine train/test directly
// in-process on the same suite ("digests_match_direct"): the server
// answers bit-identically to batch split_attack at any concurrency, or
// this bench exits 1.
//
// Scale with REPRO_SCALE or `--suite-scale N`; output path via the
// first positional arg (default BENCH_server.json).
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/binio.hpp"
#include "common/http.hpp"
#include "common/parallel.hpp"
#include "core/attack_service.hpp"

namespace {

using namespace repro;
using common::hex64;

/// Pulls "digest": "<hex16>" out of a /score response body.
std::string digest_of(const std::string& body) {
  const std::size_t at = body.find("\"digest\": \"");
  if (at == std::string::npos) return "";
  return body.substr(at + 11, 16);
}

struct Latencies {
  std::vector<double> ms;  ///< per-request round-trip
  double wall_s = 0;       ///< phase wall clock

  double percentile(double p) const {
    if (ms.empty()) return 0;
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  double mean() const {
    double sum = 0;
    for (double v : ms) sum += v;
    return ms.empty() ? 0 : sum / static_cast<double>(ms.size());
  }
  double rps() const {
    return wall_s > 0 ? static_cast<double>(ms.size()) / wall_s : 0;
  }
};

/// `clients` closed-loop client threads, each issuing `per_client`
/// POST /score requests round-robin over the folds. Digests land in
/// `digests_out` (one slot per request; "" marks a failed round-trip).
Latencies drive(int port, int clients, int per_client, std::size_t folds,
                std::vector<std::string>* digests_out) {
  digests_out->assign(
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(per_client),
      "");
  Latencies lat;
  lat.ms.resize(digests_out->size(), 0);
  bench::WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const std::size_t slot =
            static_cast<std::size_t>(c) * static_cast<std::size_t>(per_client) +
            static_cast<std::size_t>(i);
        const std::size_t fold = slot % folds;
        const std::string body =
            "{\"layer\": 8, \"fold\": " + std::to_string(fold) +
            ", \"config\": \"Imp-9\"}";
        bench::WallTimer rt;
        auto resp = common::http::fetch(port, "POST", "/score", body,
                                        "application/json",
                                        /*deadline_s=*/600.0);
        lat.ms[slot] = rt.elapsed_seconds() * 1e3;
        if (resp.ok() && resp->status == 200) {
          (*digests_out)[slot] = digest_of(resp->body);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  lat.wall_s = wall.elapsed_seconds();
  return lat;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--suite-scale" && i + 1 < argc) {
      setenv("REPRO_SCALE", argv[++i], 1);
      continue;
    }
    positional.emplace_back(arg);
  }
  const std::string out_path =
      !positional.empty() ? positional[0] : "BENCH_server.json";
  const int split_layer = 8;
  const core::AttackConfig cfg = core::config_from_name("Imp-9");
  const core::ChallengeSuite& suite = bench::challenges(split_layer);
  const std::size_t folds = suite.size();
  const int available = common::usable_cpus();

  bench::print_title("attack server harness (config " + cfg.name +
                     ", split " + std::to_string(split_layer) + ", scale " +
                     bench::num(repro::synth::scale_from_env(), 2) + ", " +
                     std::to_string(folds) + " folds)");

  // Ground truth: the same models and scores the batch CLI computes,
  // driven directly — every server response must match these bit for
  // bit (result_digest covers the complete observable result).
  std::vector<std::string> ref;
  for (std::size_t fold = 0; fold < folds; ++fold) {
    const core::TrainedModel model =
        core::AttackEngine::train(suite.training_for(fold), cfg);
    const core::AttackResult res =
        core::AttackEngine::test(model, suite.challenge(fold));
    ref.push_back(hex64(core::result_digest(res)));
  }
  std::printf("reference digests computed for %zu folds\n", folds);

  // One service for the whole bench: the cold phase fills the cache,
  // the warm sweep reuses it (the server layer is swapped per thread
  // count; the cache is the service's).
  core::AttackService::Options sopt;
  sopt.cache_bytes = 256u << 20;
  auto svc = core::AttackService::create(
      std::map<int, core::ChallengeSuite>{{split_layer, suite}}, sopt);
  if (!svc.ok()) {
    std::fprintf(stderr, "error: %s\n", svc.status().to_string().c_str());
    return 1;
  }
  core::AttackService& service = **svc;
  const auto handler = [&service](const common::http::Request& req) {
    return service.handle(req);
  };

  bool digests_ok = true;
  const auto check = [&](const std::vector<std::string>& got,
                         int per_client) {
    for (std::size_t slot = 0; slot < got.size(); ++slot) {
      const std::size_t fold = slot % folds;
      if (got[slot] != ref[fold]) {
        digests_ok = false;
        std::fprintf(stderr,
                     "DIGEST MISMATCH fold %zu: got '%s', want '%s'\n", fold,
                     got[slot].c_str(), ref[fold].c_str());
      }
    }
    (void)per_client;
  };

  // Cold: one request per fold, as many clients as folds, so every
  // request pays its own training (distinct folds never collapse into
  // one singleflight hydration).
  const int cold_threads = std::min<int>(4, std::max<int>(1, available));
  Latencies cold;
  {
    common::http::Server::Options hopt;
    hopt.port = 0;
    hopt.num_threads = std::max<int>(cold_threads, static_cast<int>(folds));
    hopt.limits.deadline_s = 600;
    auto server = common::http::Server::start(hopt, handler);
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   server.status().to_string().c_str());
      return 1;
    }
    std::vector<std::string> got;
    cold = drive((*server)->port(), static_cast<int>(folds), 1, folds, &got);
    check(got, 1);
    (*server)->stop();
  }
  std::printf("cold: %zu requests, mean %.1fms, p50 %.1fms, p99 %.1fms "
              "(every request trains)\n",
              cold.ms.size(), cold.mean(), cold.percentile(0.5),
              cold.percentile(0.99));

  // Warm sweep: closed-loop clients == handler threads.
  std::printf("%8s %8s %9s %10s %10s %12s\n", "threads", "clients",
              "requests", "p50 (ms)", "p99 (ms)", "req/s");
  struct WarmRun {
    int threads = 0;
    std::size_t requests = 0;
    double p50 = 0, p99 = 0, mean = 0, rps = 0;
    bool oversubscribed = false;
  };
  std::vector<WarmRun> warm_runs;
  double warm_mean_at_cold_threads = 0;
  for (const int threads : {1, 2, 4, 8}) {
    common::http::Server::Options hopt;
    hopt.port = 0;
    hopt.num_threads = threads;
    hopt.limits.deadline_s = 600;
    auto server = common::http::Server::start(hopt, handler);
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   server.status().to_string().c_str());
      return 1;
    }
    const int per_client = 20;
    std::vector<std::string> got;
    const Latencies lat =
        drive((*server)->port(), threads, per_client, folds, &got);
    check(got, per_client);
    (*server)->stop();

    WarmRun run;
    run.threads = threads;
    run.requests = lat.ms.size();
    run.p50 = lat.percentile(0.5);
    run.p99 = lat.percentile(0.99);
    run.mean = lat.mean();
    run.rps = lat.rps();
    run.oversubscribed = threads > available;
    warm_runs.push_back(run);
    if (threads == cold_threads) warm_mean_at_cold_threads = run.mean;
    std::printf("%8d %8d %9zu %10.2f %10.2f %12.1f%s\n", threads, threads,
                run.requests, run.p50, run.p99, run.rps,
                run.oversubscribed ? "  (oversubscribed)" : "");
  }
  if (warm_mean_at_cold_threads == 0 && !warm_runs.empty()) {
    warm_mean_at_cold_threads = warm_runs.back().mean;
  }
  const double cold_vs_warm =
      warm_mean_at_cold_threads > 0 ? cold.mean() / warm_mean_at_cold_threads
                                    : 0;
  std::printf("cold vs warm mean latency: %.1fms vs %.1fms (%.1fx)\n",
              cold.mean(), warm_mean_at_cold_threads, cold_vs_warm);
  // /shard: the remote-campaign route. Cold serves the sealed result
  // payload (models are already warm, so this prices the fold test +
  // sealing); the replay prices the idempotency tier a torn-response
  // retry hits — answered from the result map, no recompute.
  double shard_cold_ms = 0, shard_replay_ms = 0;
  {
    common::http::Server::Options hopt;
    hopt.port = 0;
    hopt.num_threads = cold_threads;
    hopt.limits.deadline_s = 600;
    auto server = common::http::Server::start(hopt, handler);
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   server.status().to_string().c_str());
      return 1;
    }
    const auto shard_pass = [&](double* mean_ms) {
      bench::WallTimer wall;
      for (std::size_t fold = 0; fold < folds; ++fold) {
        const std::string body =
            "{\"layer\": 8, \"fold\": " + std::to_string(fold) +
            ", \"config\": \"Imp-9\"}";
        auto resp = common::http::fetch((*server)->port(), "POST", "/shard",
                                        body, "application/json",
                                        /*deadline_s=*/600.0);
        if (!resp.ok() || resp->status != 200) {
          std::fprintf(stderr, "SHARD FAILED fold %zu\n", fold);
          digests_ok = false;
          continue;
        }
        const std::string* digest = resp->header("x-result-digest");
        if (digest == nullptr || *digest != ref[fold]) {
          std::fprintf(stderr, "SHARD DIGEST MISMATCH fold %zu\n", fold);
          digests_ok = false;
        }
      }
      *mean_ms = wall.elapsed_seconds() * 1e3 / static_cast<double>(folds);
    };
    shard_pass(&shard_cold_ms);
    shard_pass(&shard_replay_ms);
    (*server)->stop();
  }
  const core::AttackService::ShardStats ss = service.shard_stats();
  std::printf("shard: cold %.2fms/fold, idempotent replay %.2fms/fold "
              "(%.1fx); %" PRIu64 " computed, %" PRIu64 " memory hits\n",
              shard_cold_ms, shard_replay_ms,
              shard_replay_ms > 0 ? shard_cold_ms / shard_replay_ms : 0.0,
              ss.computed, ss.memory_hits);

  const core::ArtifactCache::Stats cs = service.cache_stats();
  std::printf("cache: %" PRIu64 " hits, %" PRIu64 " misses, %" PRIu64
              " inserts\n",
              cs.hits, cs.misses, cs.inserts);
  std::printf("digests match direct engine: %s\n",
              digests_ok ? "yes" : "NO (BUG)");

  std::vector<std::string> warm_json;
  for (const WarmRun& r : warm_runs) {
    warm_json.push_back(bench::JsonObject()
                            .field("threads", r.threads)
                            .field("clients", r.threads)
                            .field("requests",
                                   static_cast<unsigned long>(r.requests))
                            .field("p50_ms", r.p50)
                            .field("p99_ms", r.p99)
                            .field("mean_ms", r.mean)
                            .field("requests_per_s", r.rps)
                            .field("oversubscribed", r.oversubscribed)
                            .str());
  }
  const std::string cold_json =
      bench::JsonObject()
          .field("threads", cold_threads)
          .field("requests", static_cast<unsigned long>(cold.ms.size()))
          .field("mean_ms", cold.mean())
          .field("p50_ms", cold.percentile(0.5))
          .field("p99_ms", cold.percentile(0.99))
          .field("seconds", cold.wall_s)
          .str();
  const std::string cold_vs_warm_json =
      bench::JsonObject()
          .field("cold_mean_ms", cold.mean())
          .field("warm_mean_ms", warm_mean_at_cold_threads)
          .field("speedup", cold_vs_warm)
          .str();
  const std::string json =
      bench::JsonObject()
          .field("bench", std::string("server"))
          .field("config", cfg.name)
          .field("split_layer", split_layer)
          .field("suite_scale", repro::synth::scale_from_env())
          .field("folds", static_cast<unsigned long>(folds))
          .field("threads_available", available)
          .field_raw("cold", cold_json)
          .field_raw("warm_runs", bench::json_array(warm_json))
          .field_raw("cold_vs_warm", cold_vs_warm_json)
          .field_raw("shard",
                     bench::JsonObject()
                         .field("cold_ms_per_fold", shard_cold_ms)
                         .field("replay_ms_per_fold", shard_replay_ms)
                         .field("replay_speedup",
                                shard_replay_ms > 0
                                    ? shard_cold_ms / shard_replay_ms
                                    : 0.0)
                         .field("computed",
                                static_cast<unsigned long>(ss.computed))
                         .field("memory_hits",
                                static_cast<unsigned long>(ss.memory_hits))
                         .str())
          .field("cache_hits", static_cast<unsigned long>(cs.hits))
          .field("cache_misses", static_cast<unsigned long>(cs.misses))
          .field("digests_match_direct", digests_ok)
          .str();
  if (!bench::write_json_file(out_path, json)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return digests_ok ? 0 : 1;
}
