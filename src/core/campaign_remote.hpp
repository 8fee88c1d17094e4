// Remote execution backend for the campaign supervisor: dispatches
// shards as /shard HTTP requests across a fleet of split_attack_server
// endpoints instead of spawning local worker subprocesses.
//
// Layering (bottom to top):
//
//   * common/http fetch_with_retry — one request to one endpoint, with
//     per-attempt deadline, jittered exponential backoff on transport
//     errors / 408 / 429 / 5xx (honoring Retry-After) and payload-digest
//     verification against X-Payload-Fnv.
//   * CircuitBreaker — per-endpoint health gate. An endpoint whose
//     dispatches fail `failure_threshold` times in a row opens (all
//     traffic skips it); after `cooldown_ms` it admits exactly one
//     half-open probe — a success closes it, a failure re-opens it and
//     restarts the cooldown. Time is an explicit argument so tests pin
//     the whole state machine without sleeping.
//   * RemoteDispatcher — endpoint pool. Rotates round-robin over
//     breaker-admitted endpoints, counts failovers (a shard moving to
//     its 2nd+ endpoint after a failure) and owns the fleet-wide
//     counters the supervisor embeds in campaign.json (RemoteFleet).
//   * RemoteShardExecution — one shard attempt as a background thread
//     behind the ShardExecution interface. Tries endpoints until one
//     serves the shard; writes the returned result-artifact payload
//     into the shard's checkpoint under the server's X-Run-Key so the
//     supervisor's validator (manifest CRC + envelope CRC + decode)
//     judges it exactly like a local worker's output. When every
//     endpoint is down or exhausted it degrades gracefully: the shard
//     runs as a local worker subprocess (prepare_worker_spawn — same
//     command, same environment policy) and `local_fallbacks` counts it.
//
// Digest contract: the server computes the fold with parallel reductions
// forced inline, and the payload is the exact save_result byte string a
// local worker would have written — so per-layer and campaign digests
// are byte-identical to a monolithic `split_attack --loo` regardless of
// endpoint count, failovers, or fallbacks.
//
// Idempotency: a retried shard (torn response, timeout after the server
// finished) re-requests the same attack_run_key; the server answers
// from its result store instead of retraining, so retries are safe at
// any point in the request lifecycle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/http.hpp"
#include "common/status.hpp"
#include "core/campaign.hpp"

namespace repro::core {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState s);

/// Per-endpoint circuit breaker. Not thread-safe — the dispatcher holds
/// its own lock. Time is caller-supplied (milliseconds on any steady
/// scale) so the state machine is deterministic under test.
class CircuitBreaker {
 public:
  struct Options {
    int failure_threshold = 3;   ///< consecutive failures -> open
    double cooldown_ms = 2000;   ///< open duration before half-open
  };

  CircuitBreaker();  ///< default Options
  explicit CircuitBreaker(Options opt) : opt_(opt) {}

  /// Whether a request may be sent now. In half-open, admits exactly
  /// one probe: further calls return false until the probe settles via
  /// record_success / record_failure.
  bool allow(double now_ms);

  /// The probe/request admitted by allow() succeeded: close and reset.
  void record_success();

  /// The admitted request failed. In half-open this re-opens and
  /// restarts the cooldown; in closed it opens once the consecutive
  /// failure count reaches the threshold.
  void record_failure(double now_ms);

  BreakerState state(double now_ms) const;
  int consecutive_failures() const { return consecutive_failures_; }
  std::uint64_t trips() const { return trips_; }

 private:
  Options opt_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  double opened_at_ms_ = 0;
  bool probe_inflight_ = false;
  std::uint64_t trips_ = 0;  ///< closed/half-open -> open transitions
};

/// Parses "host:port[,host:port...]" into an endpoint list.
common::StatusOr<std::vector<common::http::Endpoint>> parse_endpoint_list(
    const std::string& text);

struct RemoteCampaignOptions {
  std::vector<common::http::Endpoint> endpoints;
  std::string config_name = "Imp-9";  ///< /shard request config
  int request_attempts = 3;           ///< fetch_with_retry tries/endpoint
  double backoff_base_ms = 50;
  double backoff_max_ms = 2000;
  std::uint64_t jitter_seed = 0;
  /// Per-request deadline. Covers server-side training on a cold fold,
  /// so this is minutes, not the protocol-level seconds.
  double request_deadline_s = 600;
  CircuitBreaker::Options breaker;
  /// Fleet down / all endpoints exhausted: run the shard as a local
  /// worker subprocess. Off = the attempt fails retryably and the
  /// supervisor's own retry/quarantine policy decides.
  bool allow_local_fallback = true;
  /// Tests: skip real backoff sleeps inside fetch_with_retry.
  bool skip_sleep = false;
};

/// Endpoint pool + fleet statistics. Thread-safe: shard executions on
/// many threads acquire endpoints and report results concurrently.
class RemoteDispatcher {
 public:
  /// `local_command` builds the fallback worker command line (the same
  /// WorkerCommand the supervisor would use for a local campaign).
  RemoteDispatcher(RemoteCampaignOptions options, WorkerCommand local_command);

  /// The ShardLauncher to install via CampaignSupervisor::set_launcher.
  /// The dispatcher must outlive the supervisor's run().
  ShardLauncher launcher();

  /// Counters and endpoint rows, read under one lock so they agree.
  RemoteFleet fleet() const;

  const RemoteCampaignOptions& options() const { return options_; }

 private:
  friend class RemoteShardExecution;

  /// Picks the next breaker-admitted endpoint not yet in `tried`
  /// (round-robin from the pool cursor); -1 when none is admissible.
  int acquire(const std::vector<char>& tried);

  /// Settles the endpoint attempt admitted by acquire(): exactly one
  /// report per acquire, success or failure (a cancelled probe counts
  /// as failure so a half-open breaker safely re-opens).
  void report(int index, bool success, const common::http::FetchStats& fs);

  void count_failover();
  void count_local_fallback();
  void count_remote_ok();

  static double now_ms();

  struct EndpointState {
    common::http::Endpoint ep;
    CircuitBreaker breaker;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
  };

  const RemoteCampaignOptions options_;
  const WorkerCommand local_command_;
  mutable std::mutex mutex_;
  std::vector<EndpointState> endpoints_;
  std::size_t cursor_ = 0;
  RemoteDispatchStats stats_;
};

}  // namespace repro::core
