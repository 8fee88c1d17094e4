// Fault-tolerant sharded campaign supervisor.
//
// A campaign decomposes a full evaluation (LOO folds x split layers)
// into *shards* — one (layer, fold) pair each — and runs every shard as
// a supervised worker subprocess writing into its own checkpoint
// directory under the campaign directory:
//
//   campaign_dir/
//     campaign.lock      exclusive flock: one supervisor at a time
//     campaign.json      shard state table, rewritten atomically on
//                        every transition (crash-safe resume point)
//     shards/L8_f3/      per-shard CheckpointManager directory; its
//                        own .lock doubles as the worker's claim
//
// The supervisor implements the robustness policy, not the attack:
//
//   * Scheduling: up to max_workers shards run concurrently, each with
//     a wall-clock timeout after which it is SIGKILLed ("timeout").
//   * Exit taxonomy: a finished worker is classified from its wait
//     status (common/subprocess.hpp) and, for ok-looking exits, from
//     CRC validation of the artifacts it claims to have produced —
//     "corrupt_output" is a *supervisor* verdict, never an exit code,
//     because a worker cannot be trusted to report its own torn writes.
//   * Retry with exponential backoff: transient failures (crash,
//     timeout, nonzero exit, corrupt output) requeue the shard with
//     delay min(backoff_base * 2^(attempt-1), backoff_max). Usage
//     errors and spawn failures are deterministic and quarantine
//     immediately — retrying a bad command line is noise.
//   * Quarantine: after max_attempts the shard is parked and the
//     campaign *continues*; the outcome names every quarantined shard
//     with its full attempt history, and the campaign still exits
//     successfully (partial results beat no results on a week-long
//     run). A later --resume gives quarantined shards a fresh budget.
//   * Crash-safe merge: a shard only counts as ok after its result
//     artifact re-validates (manifest size/CRC + envelope CRC + binary
//     decode); per-layer digests use the same FNV-1a combination as a
//     monolithic --loo run, so the merged digest can be differenced
//     against a single-process reference.
//
// Every shard ends in exactly one of {ok, quarantined} (or pending if
// cancelled), and the obs counters campaign.shards_ok / retried /
// quarantined account for every scheduling decision.
//
// The supervisor itself honours the REPRO_FAULT hook: each ok-shard
// commit of campaign.json counts as an artifact commit, so a test can
// SIGKILL the *supervisor* after exactly K shards completed. Workers
// always run with REPRO_FAULT stripped from the environment — faults
// are injected into specific shards deliberately, via the worker
// command builder, never inherited by all of them.
// Execution backends: the supervisor schedules *executions*, not
// processes. The default backend spawns a local worker subprocess per
// attempt; `set_launcher` swaps in any other ShardExecution factory —
// the remote backend (core/campaign_remote.hpp) dispatches the shard as
// an HTTP /shard request across a fleet of attack servers with circuit
// breakers, failover and local-subprocess fallback, under exactly the
// same retry/quarantine/validation policy, because the policy only ever
// sees the ShardExecution interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "common/telemetry.hpp"
#include "core/campaign_obs.hpp"

namespace repro::core {

class RemoteDispatcher;  // campaign_remote.hpp

struct CampaignOptions {
  std::string campaign_dir;
  std::vector<int> layers;          ///< split layers, one shard row each
  std::int64_t folds_per_layer = 0;
  int max_workers = 2;
  int max_attempts = 3;             ///< attempts before quarantine
  double backoff_base_ms = 250;
  double backoff_max_ms = 8000;
  /// Stream for the deterministic backoff jitter: retry delays are
  /// min(base * 2^(n-1), max) scaled into [0.5, 1.0) by a hash of
  /// (seed, shard id, attempt), so a batch of shards failing together
  /// never wakes in lockstep, yet every schedule is reproducible.
  std::uint64_t backoff_jitter_seed = 0;
  double shard_timeout_s = 600;     ///< per-attempt wall clock
  bool resume = false;              ///< keep prior shard state / artifacts

  // --- cross-process telemetry (campaign_obs.hpp) ----------------------
  /// > 0 enables the observability layer: the supervisor tails each
  /// running shard's telemetry.jsonl, maintains a live
  /// campaign_status.json, and arms the stall detector. The value is
  /// the workers' heartbeat interval; the worker command builder is
  /// responsible for actually passing --telemetry-out/--heartbeat-s.
  double heartbeat_s = 0;
  /// Stall threshold: a running shard whose telemetry progress has not
  /// advanced for this long is flagged. 0 = auto (max(2s, 6*heartbeat)).
  /// Flagging is detect-only unless stall_kill is set.
  double stall_after_s = 0;
  /// SIGKILL stalled workers instead of waiting for shard_timeout_s;
  /// the attempt settles as retryable outcome "stalled".
  bool stall_kill = false;
  /// Live status document path; "" = <campaign_dir>/campaign_status.json.
  std::string status_path;
  double status_interval_s = 0.5;  ///< live status rewrite cadence
};

struct CampaignOutcome {
  bool complete = false;   ///< every shard validated ok
  bool cancelled = false;  ///< stopped by the cancel token
  std::vector<ShardState> shards;
  /// Per-layer FNV-1a over the fold digests in fold order — identical
  /// to the digest a monolithic `split_attack --loo` prints for that
  /// layer. Only layers with all folds ok appear.
  std::map<int, std::uint64_t> layer_digests;
  /// FNV-1a over the per-layer digests in layer order; 0 unless
  /// complete.
  std::uint64_t campaign_digest = 0;
  int shards_ok = 0;
  int shards_quarantined = 0;
  int retries = 0;
  /// Shards the stall detector ever flagged, in (layer, fold) order.
  std::vector<std::string> stalled_shards;
  /// Counter/histogram roll-up across the ok shards' metrics.json files
  /// (telemetry runs only); "" / 0 when unavailable. Invariant across
  /// worker and thread counts — see campaign_obs.hpp.
  std::string rollup_json;
  std::uint64_t rollup_digest = 0;
  /// Fleet health (set_remote campaigns only).
  std::optional<RemoteFleet> remote;
};

/// Builds the worker command line for (shard, shard checkpoint dir,
/// 1-based attempt). The supervisor appends its own environment policy
/// (REPRO_FAULT stripped) after this runs; explicit `env` entries set
/// here still win.
using WorkerCommand = std::function<common::SpawnOptions(
    const ShardSpec&, const std::string& shard_dir, int attempt)>;

/// Validates a finished shard's artifacts and returns the fold-result
/// digest, or an error describing why the output cannot be trusted.
using ShardValidator = std::function<common::StatusOr<std::uint64_t>(
    const ShardSpec&, const std::string& shard_dir)>;

/// How one finished execution attempt ended, before validation — the
/// supervisor still CRC-validates claimed successes itself.
struct ExecutionOutcome {
  bool ok = false;         ///< execution claims the artifact is in place
  bool degraded = false;   ///< ran under degradation (local workers only)
  std::string outcome;     ///< failure class when !ok ("crashed", ...)
  std::string detail;      ///< human-readable specifics
  bool retryable = true;   ///< false = deterministic -> quarantine now
};

/// One in-flight shard attempt. The supervisor polls it, times it out,
/// terminates it, and settles its outcome without knowing whether a
/// subprocess or a remote dispatch thread is behind it.
class ShardExecution {
 public:
  virtual ~ShardExecution() = default;

  /// True once the attempt finished (then outcome() is valid).
  virtual bool poll() = 0;
  /// Asks the attempt to stop: graceful first (SIGTERM / cancel flag),
  /// forceful on the second call or with graceful=false (SIGKILL).
  virtual void terminate(bool graceful) = 0;
  /// Waits up to `seconds` for the attempt to finish; true if it did.
  virtual bool wait_for(double seconds) = 0;
  /// Blocks until the attempt is fully reaped (joins threads / waits
  /// the process). terminate(false) first guarantees a bounded wait.
  virtual void wait() = 0;
  /// Valid after poll()/wait_for() reported finished (or after wait()).
  virtual ExecutionOutcome outcome() = 0;
  /// Whether this attempt writes telemetry.jsonl into the shard dir
  /// (local workers do; remote dispatches do not — the stall detector
  /// and tail polls skip incapable executions).
  virtual bool telemetry_capable() const { return true; }
};

/// Starts one execution attempt for (shard, shard checkpoint dir,
/// 1-based attempt). A failed launch settles as a non-retryable
/// "spawn_failed" attempt, exactly like a failed fork/exec.
using ShardLauncher =
    std::function<common::StatusOr<std::unique_ptr<ShardExecution>>(
        const ShardSpec&, const std::string& shard_dir, int attempt)>;

/// SpawnOptions for a local worker attempt with the supervisor's
/// environment policy applied: worker.out/.err capture defaults and
/// REPRO_FAULT stripped (faults are injected per shard deliberately,
/// never inherited by every worker). Shared by the default local
/// backend and the remote backend's local fallback.
common::SpawnOptions prepare_worker_spawn(const WorkerCommand& command,
                                          const ShardSpec& spec,
                                          const std::string& shard_dir,
                                          int attempt);

/// Wraps a spawned local worker as a ShardExecution (exit classified
/// per common/subprocess.hpp).
std::unique_ptr<ShardExecution> make_local_execution(
    common::Subprocess proc);

/// The deterministic jittered backoff delay before retry `attempt`
/// (1-based count of failed attempts) of `spec`: see
/// CampaignOptions::backoff_jitter_seed.
double retry_backoff_ms(const CampaignOptions& options,
                        const ShardSpec& spec, int attempt);

class CampaignSupervisor {
 public:
  CampaignSupervisor(CampaignOptions options, WorkerCommand command,
                     ShardValidator validator, common::DiagnosticSink& sink)
      : options_(std::move(options)),
        command_(std::move(command)),
        validator_(std::move(validator)),
        sink_(sink) {}

  /// Swaps the execution backend (default: local worker subprocesses
  /// built from the WorkerCommand). Call before run().
  void set_launcher(ShardLauncher launcher) {
    launcher_ = std::move(launcher);
  }

  /// Attaches the remote dispatcher whose fleet health is embedded in
  /// campaign.json, the status document, and the outcome. Call before
  /// run(); the dispatcher must outlive it.
  void set_remote(const RemoteDispatcher* remote) { remote_ = remote; }

  /// Runs the campaign to completion (or cancellation). Fails fast with
  /// kFailedPrecondition if another supervisor holds the campaign lock.
  common::StatusOr<CampaignOutcome> run(common::CancelToken* cancel);

  /// Checkpoint directory of a shard inside a campaign directory.
  static std::string shard_dir(const std::string& campaign_dir,
                               const ShardSpec& spec);

  /// State-table path (campaign.json) inside a campaign directory.
  static std::string state_path(const std::string& campaign_dir);

 private:
  /// Atomically rewrites campaign.json from the in-memory shard table.
  void persist_state(const std::vector<ShardState>& shards);

  /// Merges a prior campaign.json (if any) into the shard table: each
  /// row parse_campaign_table accepts replaces the shard with its spec;
  /// rows for other shards are ignored.
  void load_state(std::vector<ShardState>& shards);

  CampaignOptions options_;
  WorkerCommand command_;
  ShardValidator validator_;
  common::DiagnosticSink& sink_;
  ShardLauncher launcher_;  ///< empty = local subprocess backend
  const RemoteDispatcher* remote_ = nullptr;
};

/// Default validator for attack shards: opens the shard's checkpoint
/// (adopting its run key), reads fold_<fold>.result through the full
/// manifest-CRC + envelope-CRC + decode path, and returns its
/// result_digest. Any failure is kDataLoss describing the artifact.
common::StatusOr<std::uint64_t> validate_attack_shard(
    const ShardSpec& spec, const std::string& shard_dir,
    common::DiagnosticSink& sink);

}  // namespace repro::core
