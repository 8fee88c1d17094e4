#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cmath>
#include <filesystem>
#include <thread>

#include "common/binio.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/http.hpp"
#include "common/json_writer.hpp"
#include "common/lockfile.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/campaign_obs.hpp"
#include "core/campaign_remote.hpp"
#include "core/cross_validation.hpp"
#include "core/resilience.hpp"

namespace repro::core {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

double retry_backoff_ms(const CampaignOptions& options,
                        const ShardSpec& spec, int attempt) {
  // http's schedule, on a per-shard jitter stream.
  common::http::RetryPolicy policy;
  policy.backoff_base_ms = options.backoff_base_ms;
  policy.backoff_max_ms = options.backoff_max_ms;
  policy.jitter_seed = common::derive_seed(options.backoff_jitter_seed,
                                           common::fnv1a64(spec.id()));
  return common::http::retry_backoff_ms(policy, attempt);
}

common::SpawnOptions prepare_worker_spawn(const WorkerCommand& command,
                                          const ShardSpec& spec,
                                          const std::string& shard_dir,
                                          int attempt) {
  common::SpawnOptions opt = command(spec, shard_dir, attempt);
  if (opt.stdout_path.empty()) opt.stdout_path = shard_dir + "/worker.out";
  if (opt.stderr_path.empty()) opt.stderr_path = shard_dir + "/worker.err";
  // Fault injection is per-shard and deliberate (via the command
  // builder); a REPRO_FAULT inherited from the supervisor's environment
  // must not leak into every worker.
  opt.env_unset.push_back("REPRO_FAULT");
  return opt;
}

namespace {

/// The default backend: one supervised worker subprocess per attempt.
class LocalShardExecution final : public ShardExecution {
 public:
  explicit LocalShardExecution(common::Subprocess proc)
      : proc_(std::move(proc)) {}

  bool poll() override { return proc_.poll(); }

  void terminate(bool graceful) override {
    proc_.kill(graceful ? SIGTERM : SIGKILL);
  }

  bool wait_for(double seconds) override { return proc_.wait_for(seconds); }

  void wait() override { proc_.wait(); }

  ExecutionOutcome outcome() override {
    const common::WaitStatus ws = proc_.status();
    const common::ExitClass cls = common::classify_exit(ws);
    ExecutionOutcome out;
    switch (cls) {
      case common::ExitClass::kOk:
      case common::ExitClass::kOkDegraded:
        out.ok = true;
        out.degraded = cls == common::ExitClass::kOkDegraded;
        return out;
      case common::ExitClass::kUsageError:
      case common::ExitClass::kSpawnFailed:
        // Deterministic: the same command line will fail the same way.
        out.outcome = common::to_string(cls);
        out.detail = ws.to_string();
        out.retryable = false;
        return out;
      case common::ExitClass::kInterrupted:
      case common::ExitClass::kFailed:
      case common::ExitClass::kCrashed:
        out.outcome = common::to_string(cls);
        out.detail = ws.to_string();
        out.retryable = true;
        return out;
    }
    out.outcome = "unknown";
    out.detail = ws.to_string();
    return out;
  }

 private:
  common::Subprocess proc_;
};

}  // namespace

std::unique_ptr<ShardExecution> make_local_execution(
    common::Subprocess proc) {
  return std::make_unique<LocalShardExecution>(std::move(proc));
}

std::string CampaignSupervisor::shard_dir(const std::string& campaign_dir,
                                          const ShardSpec& spec) {
  return campaign_dir + "/shards/" + spec.id();
}

std::string CampaignSupervisor::state_path(const std::string& campaign_dir) {
  return campaign_dir + "/campaign.json";
}

common::StatusOr<std::uint64_t> validate_attack_shard(
    const ShardSpec& spec, const std::string& dir,
    common::DiagnosticSink& sink) {
  auto ckpt = common::CheckpointManager::open_existing(dir, sink);
  if (!ckpt.ok()) return ckpt.status();
  const std::string name = ChallengeSuite::fold_result_name(spec.fold);
  if (!ckpt->has(name)) {
    return common::Status::DataLoss(spec.id() + ": worker reported success "
                                    "but " + name + " is not in the manifest");
  }
  auto raw = ckpt->read(name, sink);  // manifest size + CRC check
  if (!raw.ok()) return raw.status();
  auto res = load_result(*raw);  // envelope CRC + structural decode
  if (!res.ok()) return res.status();
  return result_digest(*res);
}

common::StatusOr<CampaignOutcome> CampaignSupervisor::run(
    common::CancelToken* cancel) {
  if (options_.layers.empty() || options_.folds_per_layer <= 0) {
    return common::Status::InvalidArgument(
        "campaign needs at least one layer and one fold per layer");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.campaign_dir + "/shards", ec);
  if (ec) {
    return common::Status::IoError("cannot create campaign dir " +
                                   options_.campaign_dir + ": " +
                                   ec.message());
  }
  // One supervisor per campaign directory. The flock dies with us, so a
  // SIGKILLed supervisor never wedges the campaign — the next one
  // reclaims the stale lock and resumes from campaign.json.
  auto lock = common::FileLock::acquire(
      options_.campaign_dir + "/campaign.lock", "campaign", sink_);
  if (!lock.ok()) return lock.status();

  CampaignOutcome out;
  std::vector<ShardState>& shards = out.shards;
  for (int layer : options_.layers) {
    for (std::int64_t f = 0; f < options_.folds_per_layer; ++f) {
      ShardState st;
      st.spec = ShardSpec{layer, f};
      shards.push_back(std::move(st));
    }
  }

  if (!options_.resume) {
    // A fresh campaign must not inherit artifacts from a previous one
    // in the same directory: wipe state and shard checkpoints.
    std::filesystem::remove(state_path(options_.campaign_dir), ec);
    std::filesystem::remove_all(options_.campaign_dir + "/shards", ec);
    std::filesystem::create_directories(options_.campaign_dir + "/shards", ec);
  } else {
    load_state(shards);
  }

  // Adopted state needs scrubbing: "running" shards belong to a dead
  // supervisor; "ok" shards re-validate (disk rot between sessions is
  // exactly what the CRCs are for); "quarantined" shards get a fresh
  // retry budget — an operator resuming a campaign is asking for
  // another go, not a replay of the old verdict.
  for (ShardState& st : shards) {
    if (st.status == ShardStatus::kRunning) {
      st.status = ShardStatus::kPending;
    } else if (st.status == ShardStatus::kQuarantined) {
      st.status = ShardStatus::kPending;
      st.attempts = 0;
      sink_.note("campaign.quarantine_reset", 0,
                 st.spec.id() + ": retry budget reset on resume");
    } else if (st.status == ShardStatus::kOk) {
      auto digest =
          validator_(st.spec, shard_dir(options_.campaign_dir, st.spec));
      if (digest.ok()) {
        st.digest = *digest;
      } else {
        sink_.warning("campaign.revalidate_failed", 0,
                      st.spec.id() + ": " + digest.status().to_string() +
                          "; recomputing shard");
        st.status = ShardStatus::kPending;
        st.attempts = 0;
        st.digest = 0;
      }
    }
  }
  persist_state(shards);

  // Cross-process telemetry config (heartbeat_s > 0 arms the layer).
  const bool telemetry_on = options_.heartbeat_s > 0;
  const double stall_after_s =
      options_.stall_after_s > 0 ? options_.stall_after_s
                                 : std::max(2.0, 6.0 * options_.heartbeat_s);
  const std::string status_path =
      options_.status_path.empty()
          ? options_.campaign_dir + "/campaign_status.json"
          : options_.status_path;
  const Clock::time_point campaign_start = Clock::now();

  struct Running {
    std::size_t idx;
    std::unique_ptr<ShardExecution> exec;
    Clock::time_point deadline;
    common::obs::TelemetryTail tail;
    Clock::time_point last_progress;  ///< when telemetry last advanced
    bool stalled = false;             ///< currently flagged
  };
  std::vector<Running> running;
  std::vector<Clock::time_point> ready_at(shards.size(), Clock::now());

  // The execution backend: local worker subprocesses unless the caller
  // installed another launcher (e.g. the remote fleet dispatcher).
  ShardLauncher launch = launcher_;
  if (!launch) {
    launch = [this](const ShardSpec& spec, const std::string& dir,
                    int attempt)
        -> common::StatusOr<std::unique_ptr<ShardExecution>> {
      auto proc = common::Subprocess::spawn(
          prepare_worker_spawn(command_, spec, dir, attempt));
      if (!proc.ok()) return proc.status();
      return make_local_execution(std::move(*proc));
    };
  }

  // Builds the status snapshot campaign_obs renders: the shard table in
  // (layer, fold) order (the shards vector is built in that order) with
  // its live fields filled in.
  const auto build_snapshot = [&](bool final_mode) {
    CampaignObsSnapshot snap;
    snap.rows = shards;
    const double now_wall = common::wall_seconds();
    for (ShardState& row : snap.rows) {
      if (!final_mode && row.has_telemetry) {
        row.heartbeat_age_s = std::max(0.0, now_wall - row.last_telemetry.t);
      }
      if (row.stalled) snap.stalled_shards.push_back(row.spec.id());
    }
    for (const Running& r : running) {
      snap.rows[r.idx].stalled_now = r.stalled;
      snap.rows[r.idx].progress_age_s =
          std::chrono::duration<double>(Clock::now() - r.last_progress)
              .count();
    }
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - campaign_start).count();
    compute_totals(&snap, final_mode ? -1 : elapsed_s);
    if (remote_ != nullptr) snap.remote = remote_->fleet();
    return snap;
  };
  const auto write_status = [&](bool final_mode) {
    if (!telemetry_on) return;
    CampaignObsSnapshot snap = build_snapshot(final_mode);
    if (final_mode) {
      snap.rollup_json = out.rollup_json;
      snap.rollup_digest = out.rollup_digest;
    }
    const common::Status s = common::atomic_write_file(
        status_path, render_campaign_status(snap, final_mode) + "\n");
    if (!s.ok()) {
      sink_.warning("campaign.status_write_failed", 0, s.to_string());
    }
  };
  Clock::time_point next_tail_poll = Clock::now();
  Clock::time_point next_status = Clock::now();

  const auto count_pending = [&] {
    return std::count_if(shards.begin(), shards.end(), [](const ShardState& s) {
      return s.status == ShardStatus::kPending;
    });
  };

  // A failed attempt either requeues with exponential backoff or, once
  // the budget is spent (or the failure is deterministic), quarantines.
  // Either way the campaign keeps draining the other shards.
  const auto settle_failure = [&](std::size_t idx, const std::string& outcome,
                                  const std::string& detail,
                                  bool retryable) {
    ShardState& st = shards[idx];
    st.history.push_back(ShardAttempt{st.attempts, outcome, detail});
    if (retryable && st.attempts < options_.max_attempts) {
      st.status = ShardStatus::kPending;
      const double ms = retry_backoff_ms(options_, st.spec, st.attempts);
      ready_at[idx] =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms));
      ++out.retries;
      OBS_COUNT("campaign.shards_retried", 1);
      OBS_COUNT("campaign.retry_backoff_ms", static_cast<std::int64_t>(ms));
      sink_.note("campaign.shard_retry", 0,
                 st.spec.id() + " attempt " + std::to_string(st.attempts) +
                     " " + outcome + " (" + detail + "); retrying in " +
                     std::to_string(static_cast<int>(ms)) + "ms");
    } else {
      st.status = ShardStatus::kQuarantined;
      OBS_COUNT("campaign.shards_quarantined", 1);
      sink_.warning("campaign.shard_quarantined", 0,
                    st.spec.id() + " quarantined after " +
                        std::to_string(st.attempts) + " attempt(s); last: " +
                        outcome + " (" + detail + ")");
    }
    persist_state(shards);
  };

  const auto settle_outcome = [&](std::size_t idx,
                                  const ExecutionOutcome& eo) {
    ShardState& st = shards[idx];
    if (eo.ok) {
      // The execution says it finished; believe the CRCs, not the
      // claim. A corrupt result is a retry like any other failure.
      auto digest =
          validator_(st.spec, shard_dir(options_.campaign_dir, st.spec));
      if (!digest.ok()) {
        settle_failure(idx, "corrupt_output", digest.status().to_string(),
                       /*retryable=*/true);
        return;
      }
      st.status = ShardStatus::kOk;
      st.digest = *digest;
      st.degraded = eo.degraded;
      OBS_COUNT("campaign.shards_ok", 1);
      persist_state(shards);
      // The supervisor's own crash point for kill-storm tests: one
      // "artifact commit" per completed shard. (Corrupt is meaningless
      // here — campaign.json is already re-derived on resume.)
      if (common::fault::on_artifact_commit() ==
          common::fault::Action::kCrashAfter) {
        common::fault::crash_now();
      }
      return;
    }
    settle_failure(idx, eo.outcome, eo.detail, eo.retryable);
  };

  while (true) {
    if (cancel && cancel->cancelled()) {
      // Cooperative stop: take the workers down, put their shards back,
      // and leave a resumable state table. A cancelled attempt is not a
      // failure, so it does not burn retry budget.
      for (Running& r : running) {
        r.exec->terminate(/*graceful=*/true);
      }
      for (Running& r : running) {
        if (!r.exec->wait_for(2.0)) {
          r.exec->terminate(/*graceful=*/false);
          r.exec->wait();
        }
        shards[r.idx].status = ShardStatus::kPending;
        --shards[r.idx].attempts;
      }
      running.clear();
      persist_state(shards);
      out.cancelled = true;
      break;
    }

    // Final telemetry drain for a worker that is leaving the running
    // set: a short-lived worker can die between throttled tail polls,
    // and its phase/progress at death must still reach the shard state
    // (the report embeds it for quarantined shards).
    const auto drain_tail = [&](Running& r) {
      if (!telemetry_on || !r.exec->telemetry_capable()) return;
      std::vector<common::obs::TelemetryRecord> fresh;
      r.tail.poll(fresh);
      if (!fresh.empty()) {
        shards[r.idx].last_telemetry = fresh.back();
        shards[r.idx].has_telemetry = true;
      }
    };

    // Reap finished workers and enforce per-attempt timeouts.
    for (std::size_t i = 0; i < running.size();) {
      Running& r = running[i];
      if (r.exec->poll()) {
        drain_tail(r);
        settle_outcome(r.idx, r.exec->outcome());
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (Clock::now() >= r.deadline) {
        r.exec->terminate(/*graceful=*/false);
        r.exec->wait();
        drain_tail(r);
        settle_failure(r.idx, "timeout",
                       "exceeded " +
                           std::to_string(options_.shard_timeout_s) +
                           "s wall clock; SIGKILLed",
                       /*retryable=*/true);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }

    // Telemetry: tail worker heartbeats, advance the stall detector,
    // refresh the live status document. Tail polls are throttled —
    // re-reading every file each 5ms scheduler tick would be all
    // syscalls — and the stall detector distinguishes hung from slow:
    // a hung worker's heartbeat thread keeps appending records, but the
    // progress counter sum inside them freezes (see telemetry.hpp).
    if (telemetry_on && Clock::now() >= next_tail_poll) {
      next_tail_poll = Clock::now() + std::chrono::milliseconds(50);
      for (std::size_t i = 0; i < running.size();) {
        Running& r = running[i];
        if (!r.exec->telemetry_capable()) {
          // Remote dispatches produce no worker telemetry; their health
          // is the retry/breaker layer's job, not the stall detector's.
          ++i;
          continue;
        }
        ShardState& st = shards[r.idx];
        std::vector<common::obs::TelemetryRecord> fresh;
        r.tail.poll(fresh);
        for (const common::obs::TelemetryRecord& rec : fresh) {
          if (!st.has_telemetry || progress_advanced(st.last_telemetry, rec)) {
            r.last_progress = Clock::now();
          }
          st.last_telemetry = rec;
          st.has_telemetry = true;
        }
        const double idle_s =
            std::chrono::duration<double>(Clock::now() - r.last_progress)
                .count();
        if (idle_s > stall_after_s) {
          if (!r.stalled) {
            r.stalled = true;
            sink_.warning(
                "campaign.shard_stalled", 0,
                st.spec.id() + ": no telemetry progress for " +
                    std::to_string(static_cast<int>(idle_s)) + "s (phase " +
                    (st.has_telemetry ? st.last_telemetry.phase
                                      : std::string("unknown")) +
                    ", " + std::to_string(static_cast<int>(stall_after_s)) +
                    "s threshold)");
            if (!st.stalled) {
              st.stalled = true;
              OBS_COUNT("campaign.shards_stalled", 1);
              persist_state(shards);
            }
          }
          if (options_.stall_kill) {
            r.exec->terminate(/*graceful=*/false);
            r.exec->wait();
            settle_failure(r.idx, "stalled",
                           "no telemetry progress for " +
                               std::to_string(static_cast<int>(idle_s)) +
                               "s; SIGKILLed before the " +
                               std::to_string(
                                   static_cast<int>(options_.shard_timeout_s)) +
                               "s timeout",
                           /*retryable=*/true);
            running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
          }
        } else if (r.stalled) {
          // Progress resumed: the worker was slow, not hung. The shard
          // keeps its ever-stalled mark for the outcome report.
          r.stalled = false;
          sink_.note("campaign.shard_recovered", 0,
                     st.spec.id() + ": telemetry progress resumed");
        }
        ++i;
      }
    }
    if (telemetry_on && Clock::now() >= next_status) {
      next_status =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.status_interval_s));
      write_status(/*final_mode=*/false);
    }

    // Fill free worker slots with shards whose backoff has elapsed.
    for (std::size_t idx = 0;
         idx < shards.size() &&
         running.size() < static_cast<std::size_t>(options_.max_workers);
         ++idx) {
      ShardState& st = shards[idx];
      if (st.status != ShardStatus::kPending) continue;
      if (Clock::now() < ready_at[idx]) continue;
      const std::string dir = shard_dir(options_.campaign_dir, st.spec);
      std::filesystem::create_directories(dir, ec);
      ++st.attempts;
      auto exec = launch(st.spec, dir, st.attempts);
      if (!exec.ok()) {
        settle_failure(idx, "spawn_failed", exec.status().to_string(),
                       /*retryable=*/false);
        continue;
      }
      st.status = ShardStatus::kRunning;
      persist_state(shards);
      running.push_back(
          Running{idx, std::move(*exec),
                  Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         options_.shard_timeout_s)),
                  common::obs::TelemetryTail(dir + "/telemetry.jsonl"),
                  Clock::now(), /*stalled=*/false});
    }

    if (running.empty() && count_pending() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Merge: per-layer digests in fold order, campaign digest in layer
  // order. Only fully-ok layers get a digest; the campaign digest only
  // exists when everything validated (a partial digest would invite
  // comparing incomparable runs).
  for (const ShardState& st : shards) {
    if (st.status == ShardStatus::kOk) ++out.shards_ok;
    if (st.status == ShardStatus::kQuarantined) ++out.shards_quarantined;
  }
  out.complete =
      out.shards_ok == static_cast<int>(shards.size()) && !out.cancelled;
  for (int layer : options_.layers) {
    std::vector<std::uint64_t> folds;
    bool all_ok = true;
    for (const ShardState& st : shards) {
      if (st.spec.layer != layer) continue;
      if (st.status != ShardStatus::kOk) {
        all_ok = false;
        break;
      }
      folds.push_back(st.digest);
    }
    if (all_ok) out.layer_digests[layer] = combine_digests(folds);
  }
  if (out.complete) {
    std::vector<std::uint64_t> per_layer;
    for (const auto& [layer, digest] : out.layer_digests) {
      per_layer.push_back(digest);
    }
    out.campaign_digest = combine_digests(per_layer);
  }

  for (const ShardState& st : shards) {
    if (st.stalled) out.stalled_shards.push_back(st.spec.id());
  }
  // Roll up the ok shards' metrics and seal the final status document.
  // Both are deterministic across worker/thread counts: the roll-up is
  // a commutative sum of thread-count-invariant registries, and the
  // final rendering omits every volatile field (campaign_obs.hpp).
  if (telemetry_on && out.complete) {
    std::vector<std::string> paths;
    paths.reserve(shards.size());
    for (const ShardState& st : shards) {
      paths.push_back(shard_dir(options_.campaign_dir, st.spec) +
                      "/metrics.json");
    }
    auto rollup = rollup_shard_metrics(paths);
    if (rollup.ok()) {
      out.rollup_json = rollup->json;
      out.rollup_digest = rollup->digest;
    } else {
      sink_.warning("campaign.rollup_failed", 0,
                    rollup.status().to_string());
    }
  }
  if (remote_ != nullptr) out.remote = remote_->fleet();
  write_status(/*final_mode=*/true);
  return out;
}

void CampaignSupervisor::persist_state(const std::vector<ShardState>& shards) {
  common::JsonObject top;
  top.field("format_version", 1)
      .field_raw("shards", render_shard_rows(shards));
  if (remote_ != nullptr) {
    // Fleet-health counters ride in the state table so obs_report (and
    // any file-only observer) sees them without supervisor cooperation.
    top.field_raw("remote", render_remote_fleet(remote_->fleet()));
  }
  const common::Status s = common::atomic_write_file(
      state_path(options_.campaign_dir), top.str() + "\n");
  if (!s.ok()) {
    sink_.warning("campaign.state_write_failed", 0, s.to_string());
  }
}

void CampaignSupervisor::load_state(std::vector<ShardState>& shards) {
  auto text = common::read_file(state_path(options_.campaign_dir));
  if (!text.ok()) return;  // no prior state: every shard starts pending
  auto table = parse_campaign_table(*text);
  if (!table.ok()) {
    sink_.warning("campaign.corrupt_state", 0,
                  table.status().message() + "; restarting every shard");
    return;
  }
  for (ShardState& row : table->shards) {
    auto it = std::find_if(
        shards.begin(), shards.end(),
        [&](const ShardState& s) { return s.spec == row.spec; });
    if (it != shards.end()) *it = std::move(row);  // else: layers changed
  }
}

}  // namespace repro::core
