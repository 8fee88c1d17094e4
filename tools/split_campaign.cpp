// split_campaign - fault-tolerant sharded campaign driver.
//
// Decomposes a full evaluation (LOO folds x split layers) into shards
// and runs each shard as a supervised `split_attack --fold` worker
// subprocess against its own checkpoint directory, with bounded
// retries, exponential backoff, and quarantine for shards that keep
// failing. The campaign itself is crash-safe: SIGKILL the supervisor
// (or any number of workers) at any instant and a rerun with --resume
// picks up from the last committed shard state — the merged digest is
// byte-identical to an uninterrupted run's, at any --threads value.
//
// Example (any usage error prints the full flag list):
//   split_campaign --demo --layers 6,8 --campaign-dir DIR --workers 4
//
// --remote HOST:PORT[,HOST:PORT...] dispatches shards to a fleet of
// split_attack_server processes (POST /shard) instead of spawning local
// workers: per-endpoint circuit breakers, jittered retry with
// Retry-After honoring, failover across endpoints, and — when the whole
// fleet is down — graceful degradation to a local worker subprocess.
// The servers compute with reductions forced inline and return the
// exact result-artifact bytes a local worker would write, so the
// campaign digest is byte-identical to a local run at any endpoint
// count, under any injected fault. See core/campaign_remote.hpp.
//
// Shards are named L<layer>_f<fold>. --inject-fault plants a
// deterministic REPRO_FAULT (see common/fault.hpp) into one shard's
// worker environment — by default only on its first attempt, so the
// retry succeeds and the test exercises the backoff path; the @all
// suffix faults every attempt, driving the shard into quarantine. The
// supervisor always strips any inherited REPRO_FAULT from worker
// environments; a REPRO_FAULT in split_campaign's *own* environment
// fires in the supervisor (crash_after_artifact:K = SIGKILL itself
// after K shards completed), which is how the kill-storm check murders
// the driver mid-campaign.
//
// A quarantined shard does not fail the campaign: the run completes,
// names the quarantined shards (with their full attempt history) in
// the report, and exits 0 — partial results from a week-long campaign
// beat none. The digest file's "complete" field records whether every
// shard validated.
//
// Exit codes: 0 campaign finished (possibly with quarantined shards),
// 1 runtime failure (e.g. another supervisor holds the campaign lock),
// 2 usage error, 3 interrupted by signal.
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cancel.hpp"
#include "common/diagnostics.hpp"
#include "common/flags.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "common/binio.hpp"
#include "core/campaign.hpp"
#include "core/campaign_obs.hpp"
#include "core/campaign_remote.hpp"
#include "core/pipeline.hpp"

namespace {

using namespace repro;
using common::hex64;

/// One planted fault: shard id -> REPRO_FAULT spec, first attempt only
/// unless every_attempt.
struct Injection {
  std::string spec;
  bool every_attempt = false;
};

struct Args {
  core::SuiteSource source;
  std::vector<int> layers;
  std::string campaign_dir;
  bool resume = false;
  int workers = 2;
  int threads = 1;
  int max_attempts = 3;
  double backoff_ms = 250;
  double backoff_max_ms = 8000;
  double shard_timeout_s = 600;
  std::string config = "Imp-9";
  std::string digest_out;
  std::string report_out;
  std::string worker_bin;
  std::map<std::string, Injection> injections;

  // Cross-process telemetry (on by default; see campaign_obs.hpp).
  bool telemetry = true;
  double heartbeat_s = 0.5;    ///< worker heartbeat interval
  double stall_after_s = 0;    ///< 0 = auto (max(2s, 6*heartbeat))
  bool stall_kill = false;     ///< kill stalled workers early
  std::string status_out;      ///< "" = <campaign-dir>/campaign_status.json
  std::string trace_out;       ///< merged campaign Chrome trace
  std::string metrics_out;     ///< counter/histogram roll-up

  // Remote dispatch (core/campaign_remote.hpp).
  std::string remote;                  ///< "" = local workers
  int remote_attempts = 3;             ///< HTTP tries per endpoint
  double remote_backoff_ms = 50;       ///< HTTP retry backoff base
  double remote_backoff_max_ms = 2000;
  double remote_deadline_s = 600;      ///< per-request (covers training)
  int breaker_failures = 3;            ///< consecutive failures -> open
  double breaker_cooldown_ms = 2000;   ///< open duration before probe
  bool no_local_fallback = false;      ///< fleet down = shard fails
  int jitter_seed = 0;                 ///< backoff jitter stream
};

Args parse_args(int argc, char** argv) {
  Args a;
  common::FlagTable flags(argv[0]);
  // --layers L1,L2,...: a comma-separated list; a repeated flag replaces it.
  const auto layers = [&a](const std::string& v) {
    a.layers.clear();
    for (std::size_t start = 0;;) {
      const std::size_t comma = v.find(',', start);
      const std::string entry = v.substr(start, comma - start);
      const std::optional<long long> layer = common::parse_int(entry, 1, 64);
      if (!layer) return common::expects_integer(entry, 1, 64);
      a.layers.push_back(static_cast<int>(*layer));
      if (comma == std::string::npos) return std::string();
      start = comma + 1;
    }
  };
  // --inject-fault SHARD=SPEC[@all], e.g. L6_f0=crash_after_artifact:0@all
  const auto inject = [&a](const std::string& v) {
    const std::size_t eq = v.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
      return std::string("expects SHARD=SPEC[@all]");
    }
    Injection inj;
    inj.spec = v.substr(eq + 1);
    const std::size_t at = inj.spec.rfind("@all");
    if (at != std::string::npos && at == inj.spec.size() - 4) {
      inj.spec = inj.spec.substr(0, at);
      inj.every_attempt = true;
    }
    a.injections[v.substr(0, eq)] = inj;
    return std::string();
  };
  a.source.bind(flags)
      .custom("--layers", "L1,L2,...", layers)
      .text("--campaign-dir", "DIR", &a.campaign_dir)
      .flag("--resume", &a.resume)
      .integer("--workers", "N", &a.workers, 1, 256)
      .integer("--threads", "N", &a.threads, 0, 1024)
      .integer("--max-attempts", "N", &a.max_attempts, 1, 100)
      .number("--backoff-ms", "B", &a.backoff_ms, 0, 1e7)
      .number("--backoff-max-ms", "B", &a.backoff_max_ms, 0, 1e8)
      .number("--shard-timeout-s", "S", &a.shard_timeout_s, 0.001, 1e7)
      .text("--config", "NAME", &a.config)
      .text("--digest-out", "JSON", &a.digest_out)
      .text("--report-out", "JSON", &a.report_out)
      .text("--worker-bin", "PATH", &a.worker_bin)
      .custom("--inject-fault", "SHARD=SPEC[@all]", inject)
      .flag("--no-telemetry", &a.telemetry, false)
      .number("--heartbeat-s", "S", &a.heartbeat_s, 0.01, 3600)
      .number("--stall-after-s", "S", &a.stall_after_s, 0, 1e7)
      .flag("--stall-kill", &a.stall_kill)
      .text("--status-out", "JSON", &a.status_out)
      .text("--trace-out", "JSON", &a.trace_out)
      .text("--metrics-out", "JSON", &a.metrics_out)
      .text("--remote", "HOST:PORT[,HOST:PORT...]", &a.remote)
      .integer("--remote-attempts", "N", &a.remote_attempts, 1, 100)
      .number("--remote-backoff-ms", "B", &a.remote_backoff_ms, 0, 1e7)
      .number("--remote-backoff-max-ms", "B", &a.remote_backoff_max_ms, 0,
              1e8)
      .number("--remote-deadline-s", "S", &a.remote_deadline_s, 0.001, 1e7)
      .integer("--breaker-failures", "N", &a.breaker_failures, 1, 1000)
      .number("--breaker-cooldown-ms", "MS", &a.breaker_cooldown_ms, 0, 1e8)
      .flag("--no-local-fallback", &a.no_local_fallback)
      .integer("--jitter-seed", "N", &a.jitter_seed, 0, 1000000000);
  flags.parse_or_exit(argc, argv);
  if (const std::string why = a.source.usage_error(); !why.empty()) {
    flags.fail(why);
  }
  if (a.layers.empty()) flags.fail("--layers is required");
  if (a.campaign_dir.empty()) flags.fail("--campaign-dir is required");
  return a;
}

/// Default worker binary: split_attack next to this executable.
std::string default_worker_bin(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  std::string self = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                           : std::string(argv0);
  const std::size_t slash = self.rfind('/');
  return (slash == std::string::npos ? std::string(".")
                                     : self.substr(0, slash)) +
         "/split_attack";
}

bool write_digest_file(const std::string& path,
                       const core::CampaignOutcome& out) {
  std::vector<std::string> rows;
  for (const auto& [layer, digest] : out.layer_digests) {
    rows.push_back(common::JsonObject()
                       .field("layer", layer)
                       .field("digest", hex64(digest))
                       .str());
  }
  common::JsonObject obj;
  obj.field("complete", out.complete);
  if (out.complete) obj.field("digest", hex64(out.campaign_digest));
  obj.field_raw("layers", common::json_array(rows));
  return common::write_json_file(path, obj.str());
}

bool write_report_file(const std::string& path,
                       const core::CampaignOutcome& out) {
  common::JsonObject obj;
  obj.field("tool", "split_campaign")
      .field("complete", out.complete)
      .field("cancelled", out.cancelled)
      .field("shards_ok", out.shards_ok)
      .field("shards_quarantined", out.shards_quarantined)
      .field("retries", out.retries);
  if (out.complete) obj.field("digest", hex64(out.campaign_digest));
  {
    std::vector<std::string> stalled;
    for (const std::string& id : out.stalled_shards) {
      stalled.push_back(common::json_str(id));
    }
    obj.field_raw("stalled_shards", common::json_array(stalled));
  }
  if (out.rollup_digest != 0) {
    obj.field("rollup_digest", hex64(out.rollup_digest));
  }
  if (out.remote) {
    obj.field_raw("remote", core::render_remote_fleet(*out.remote));
  }
  obj.field_raw("shards", core::render_shard_rows(out.shards));
  return common::write_json_file(path, obj.str());
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  common::install_stop_signals();
  common::CancelToken& cancel = common::global_cancel_token();

  // The LOO suite size fixes the fold count per layer: one held-out
  // design per fold. A training DEF the workers skipped would shrink
  // their suite and shift fold indices, so file-mode workers run
  // --strict and fail the shard loudly instead.
  const std::int64_t folds = args.source.num_designs();

  const std::string worker_bin =
      args.worker_bin.empty() ? default_worker_bin(argv[0]) : args.worker_bin;

  core::CampaignOptions opt;
  opt.campaign_dir = args.campaign_dir;
  opt.layers = args.layers;
  opt.folds_per_layer = folds;
  opt.max_workers = args.workers;
  opt.max_attempts = args.max_attempts;
  opt.backoff_base_ms = args.backoff_ms;
  opt.backoff_max_ms = args.backoff_max_ms;
  opt.backoff_jitter_seed = args.jitter_seed;
  opt.shard_timeout_s = args.shard_timeout_s;
  opt.resume = args.resume;
  if (args.telemetry) {
    opt.heartbeat_s = args.heartbeat_s;
    opt.stall_after_s = args.stall_after_s;
    opt.stall_kill = args.stall_kill;
    opt.status_path = args.status_out;
  }

  const core::WorkerCommand command =
      [&](const core::ShardSpec& spec, const std::string& shard_dir,
          int attempt) {
        common::SpawnOptions w;
        w.argv = {worker_bin};
        const std::vector<std::string> source = args.source.worker_argv();
        w.argv.insert(w.argv.end(), source.begin(), source.end());
        if (!args.source.demo) w.argv.push_back("--strict");
        w.argv.insert(
            w.argv.end(),
            {"--loo", "--fold", std::to_string(spec.fold), "--split",
             std::to_string(spec.layer), "--config", args.config, "--threads",
             std::to_string(args.threads), "--checkpoint-dir", shard_dir,
             "--resume"});
        if (args.telemetry) {
          // Heartbeats feed the supervisor's tail; the per-shard trace
          // and metrics files feed the post-campaign merge/roll-up.
          // Logical time keeps the merged trace byte-stable across
          // worker and thread counts.
          w.argv.insert(
              w.argv.end(),
              {"--telemetry-out", shard_dir + "/telemetry.jsonl",
               "--heartbeat-s", std::to_string(args.heartbeat_s),
               "--trace-out", shard_dir + "/trace.json", "--metrics-out",
               shard_dir + "/metrics.json", "--report-out",
               shard_dir + "/report.json", "--obs-logical-time"});
        }
        const auto inj = args.injections.find(spec.id());
        if (inj != args.injections.end() &&
            (attempt == 1 || inj->second.every_attempt)) {
          w.env.emplace_back("REPRO_FAULT", inj->second.spec);
        }
        return w;
      };

  common::DiagnosticSink sink(args.campaign_dir);
  const core::ShardValidator validator =
      [&](const core::ShardSpec& spec, const std::string& shard_dir) {
        return core::validate_attack_shard(spec, shard_dir, sink);
      };

  std::fprintf(stderr,
               "campaign: %zu layer(s) x %lld fold(s) = %lld shard(s), "
               "%d worker(s)%s\n",
               args.layers.size(), static_cast<long long>(folds),
               static_cast<long long>(folds *
                                      static_cast<std::int64_t>(
                                          args.layers.size())),
               args.workers, args.resume ? " (resume)" : "");

  core::CampaignSupervisor supervisor(opt, command, validator, sink);

  // Remote backend: dispatch shards to the fleet; the dispatcher must
  // outlive supervisor.run().
  std::optional<core::RemoteDispatcher> dispatcher;
  if (!args.remote.empty()) {
    auto endpoints = core::parse_endpoint_list(args.remote);
    if (!endpoints.ok()) {
      std::fprintf(stderr, "error: --remote: %s\n",
                   endpoints.status().to_string().c_str());
      return 2;
    }
    core::RemoteCampaignOptions ropt;
    ropt.endpoints = *endpoints;
    ropt.config_name = args.config;
    ropt.request_attempts = args.remote_attempts;
    ropt.backoff_base_ms = args.remote_backoff_ms;
    ropt.backoff_max_ms = args.remote_backoff_max_ms;
    ropt.request_deadline_s = args.remote_deadline_s;
    ropt.jitter_seed = args.jitter_seed;
    ropt.breaker.failure_threshold = args.breaker_failures;
    ropt.breaker.cooldown_ms = args.breaker_cooldown_ms;
    ropt.allow_local_fallback = !args.no_local_fallback;
    dispatcher.emplace(ropt, command);
    supervisor.set_launcher(dispatcher->launcher());
    supervisor.set_remote(&*dispatcher);
    std::fprintf(stderr, "remote: %zu endpoint(s)%s\n", endpoints->size(),
                 args.no_local_fallback ? "" : ", local fallback armed");
  }

  auto outcome = supervisor.run(&cancel);
  sink.print(std::cerr);
  if (!outcome.ok()) {
    std::fprintf(stderr, "error: %s\n", outcome.status().to_string().c_str());
    return 1;
  }

  std::printf("%-10s %-12s %8s %8s  %s\n", "shard", "status", "attempts",
              "degraded", "digest");
  for (const core::ShardState& st : outcome->shards) {
    std::printf("%-10s %-12s %8d %8s  %s\n", st.spec.id().c_str(),
                core::to_string(st.status), st.attempts,
                st.degraded ? "yes" : "no",
                st.status == core::ShardStatus::kOk ? hex64(st.digest).c_str()
                                                    : "-");
    for (const core::ShardAttempt& at : st.history) {
      std::printf("           attempt %d: %s (%s)\n", at.attempt,
                  at.outcome.c_str(), at.detail.c_str());
    }
  }
  std::printf("shards: %d ok, %d quarantined, %d retries\n",
              outcome->shards_ok, outcome->shards_quarantined,
              outcome->retries);
  if (outcome->remote) {
    const core::RemoteDispatchStats& rs = outcome->remote->stats;
    std::printf("remote: %llu ok, %llu request(s), %llu retried, "
                "%llu failover(s), %llu breaker trip(s), "
                "%llu local fallback(s)\n",
                static_cast<unsigned long long>(rs.remote_ok),
                static_cast<unsigned long long>(rs.requests),
                static_cast<unsigned long long>(rs.retries),
                static_cast<unsigned long long>(rs.failovers),
                static_cast<unsigned long long>(rs.breaker_trips),
                static_cast<unsigned long long>(rs.local_fallbacks));
    for (const core::RemoteEndpointObs& ep : outcome->remote->endpoints) {
      std::printf("  endpoint %s: %s, %llu request(s), %llu failure(s)\n",
                  ep.label.c_str(), ep.state.c_str(),
                  static_cast<unsigned long long>(ep.requests),
                  static_cast<unsigned long long>(ep.failures));
    }
  }
  if (!outcome->stalled_shards.empty()) {
    std::string list;
    for (const std::string& id : outcome->stalled_shards) {
      if (!list.empty()) list += ", ";
      list += id;
    }
    std::printf("stalled shards: %s\n", list.c_str());
  }
  for (const auto& [layer, digest] : outcome->layer_digests) {
    std::printf("layer %d digest: %s\n", layer, hex64(digest).c_str());
  }
  if (outcome->complete) {
    std::printf("campaign digest: %s\n",
                hex64(outcome->campaign_digest).c_str());
  } else if (outcome->cancelled) {
    std::fprintf(stderr,
                 "interrupted: campaign state saved, rerun with --resume\n");
  } else {
    std::fprintf(stderr, "campaign finished with %d quarantined shard(s)\n",
                 outcome->shards_quarantined);
  }

  if (!args.digest_out.empty() &&
      !write_digest_file(args.digest_out, *outcome)) {
    std::fprintf(stderr, "error: cannot write %s\n", args.digest_out.c_str());
    return 1;
  }
  if (!args.report_out.empty() &&
      !write_report_file(args.report_out, *outcome)) {
    std::fprintf(stderr, "error: cannot write %s\n", args.report_out.c_str());
    return 1;
  }
  if (!args.trace_out.empty() && args.telemetry) {
    // Merge the per-shard Chrome traces into one campaign timeline.
    // Only ok shards contribute (a failed shard's trace is torn or
    // absent); in logical-time mode the result is byte-identical
    // across worker counts once the campaign is complete.
    std::vector<std::pair<std::string, std::string>> traced;
    for (const core::ShardState& st : outcome->shards) {
      if (st.status != core::ShardStatus::kOk) continue;
      traced.emplace_back(st.spec.id(),
                          core::CampaignSupervisor::shard_dir(
                              args.campaign_dir, st.spec) +
                              "/trace.json");
    }
    auto merged = core::merge_shard_traces(traced);
    if (!merged.ok()) {
      std::fprintf(stderr, "error: trace merge: %s\n",
                   merged.status().to_string().c_str());
      return 1;
    }
    if (!common::atomic_write_file(args.trace_out, *merged + "\n").ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  if (!args.metrics_out.empty() && args.telemetry) {
    if (outcome->rollup_json.empty()) {
      std::fprintf(stderr,
                   "warning: no metrics roll-up (campaign incomplete); "
                   "skipping %s\n",
                   args.metrics_out.c_str());
    } else if (!common::write_json_file(args.metrics_out,
                                        outcome->rollup_json)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
  }
  return outcome->cancelled ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
