// Campaign supervisor policy tests: retry with backoff, quarantine,
// timeout escalation, corrupt-output verdicts, resume, and the campaign
// lock. Workers are /bin/sh scripts whose behaviour depends on the
// attempt number, so every failure mode is deterministic — no real
// attack runs, no timing races.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/diagnostics.hpp"
#include "common/lockfile.hpp"
#include "common/obs.hpp"

namespace {

namespace fs = std::filesystem;
using repro::common::CancelToken;
using repro::common::DiagnosticSink;
using repro::common::SpawnOptions;
using repro::common::Status;
using repro::common::StatusCode;
using repro::common::StatusOr;
using repro::core::CampaignOptions;
using repro::core::CampaignOutcome;
using repro::core::CampaignSupervisor;
using repro::core::ShardSpec;
using repro::core::ShardState;
using repro::core::ShardStatus;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

CampaignOptions fast_options(const std::string& dir, int layers = 1,
                             std::int64_t folds = 2) {
  CampaignOptions opt;
  opt.campaign_dir = dir;
  for (int i = 0; i < layers; ++i) opt.layers.push_back(4 + 2 * i);
  opt.folds_per_layer = folds;
  opt.max_workers = 2;
  opt.max_attempts = 3;
  opt.backoff_base_ms = 1;  // keep retry tests fast
  opt.backoff_max_ms = 4;
  opt.shard_timeout_s = 30;
  return opt;
}

/// Worker that runs `script` via /bin/sh with SHARD_ID / ATTEMPT /
/// SHARD_DIR exported, so scripts can branch per attempt.
repro::core::WorkerCommand sh_worker(const std::string& script) {
  return [script](const ShardSpec& spec, const std::string& shard_dir,
                  int attempt) {
    SpawnOptions opt;
    opt.argv = {"/bin/sh", "-c", script};
    opt.env.emplace_back("SHARD_ID", spec.id());
    opt.env.emplace_back("SHARD_DIR", shard_dir);
    opt.env.emplace_back("ATTEMPT", std::to_string(attempt));
    return opt;
  };
}

/// Validator that accepts any shard whose directory contains `done` and
/// derives a stable digest from the shard id.
StatusOr<std::uint64_t> marker_validator(const ShardSpec& spec,
                                         const std::string& shard_dir) {
  if (!fs::exists(shard_dir + "/done")) {
    return Status::DataLoss(spec.id() + ": done marker missing");
  }
  std::uint64_t h = 1469598103934665603ull;
  for (char c : spec.id()) h = (h ^ static_cast<unsigned char>(c)) *
                               1099511628211ull;
  return h;
}

const ShardState* find_shard(const CampaignOutcome& out,
                             const std::string& id) {
  for (const auto& s : out.shards) {
    if (s.spec.id() == id) return &s;
  }
  return nullptr;
}

TEST(Campaign, AllShardsOkProducesCompleteMergedOutcome) {
  const std::string dir = fresh_dir("campaign_ok");
  DiagnosticSink sink;
  CampaignSupervisor sup(fast_options(dir, /*layers=*/2, /*folds=*/2),
                         sh_worker("touch \"$SHARD_DIR/done\""),
                         marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->shards_ok, 4);
  EXPECT_EQ(out->shards_quarantined, 0);
  EXPECT_EQ(out->retries, 0);
  EXPECT_EQ(out->layer_digests.size(), 2u);
  EXPECT_NE(out->campaign_digest, 0u);
  EXPECT_TRUE(fs::exists(CampaignSupervisor::state_path(dir)));
}

TEST(Campaign, TransientFailureRetriesWithRecordedHistory) {
  const std::string dir = fresh_dir("campaign_retry");
  DiagnosticSink sink;
  // Every shard fails once, then succeeds.
  CampaignSupervisor sup(
      fast_options(dir, 1, 2),
      sh_worker("if [ \"$ATTEMPT\" = 1 ]; then exit 9; fi; "
                "touch \"$SHARD_DIR/done\""),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->shards_ok, 2);
  EXPECT_EQ(out->retries, 2);
  for (const auto& s : out->shards) {
    EXPECT_EQ(s.status, ShardStatus::kOk);
    EXPECT_EQ(s.attempts, 2);
    ASSERT_GE(s.history.size(), 1u);
    EXPECT_EQ(s.history[0].outcome, "failed");
  }
}

TEST(Campaign, PersistentFailureQuarantinesButCampaignSucceeds) {
  const std::string dir = fresh_dir("campaign_quarantine");
  DiagnosticSink sink;
  CampaignSupervisor sup(
      fast_options(dir, 1, 2),
      sh_worker("if [ \"$SHARD_ID\" = L4_f1 ]; then exit 9; fi; "
                "touch \"$SHARD_DIR/done\""),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << "quarantine must not fail the campaign";
  EXPECT_FALSE(out->complete);
  EXPECT_EQ(out->shards_ok, 1);
  EXPECT_EQ(out->shards_quarantined, 1);
  const ShardState* bad = find_shard(*out, "L4_f1");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, ShardStatus::kQuarantined);
  EXPECT_EQ(bad->attempts, 3);
  ASSERT_EQ(bad->history.size(), 3u);
  // A layer with a quarantined fold must not publish a digest.
  EXPECT_EQ(out->layer_digests.count(4), 0u);
  EXPECT_EQ(out->campaign_digest, 0u);
}

TEST(Campaign, UsageErrorQuarantinesImmediately) {
  const std::string dir = fresh_dir("campaign_usage");
  DiagnosticSink sink;
  CampaignSupervisor sup(fast_options(dir, 1, 1), sh_worker("exit 2"),
                         marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  const ShardState& s = out->shards.at(0);
  EXPECT_EQ(s.status, ShardStatus::kQuarantined);
  EXPECT_EQ(s.attempts, 1) << "usage errors are deterministic: no retry";
  ASSERT_EQ(s.history.size(), 1u);
  EXPECT_EQ(s.history[0].outcome, "usage_error");
}

TEST(Campaign, CrashedWorkerIsRetried) {
  const std::string dir = fresh_dir("campaign_crash");
  DiagnosticSink sink;
  CampaignSupervisor sup(
      fast_options(dir, 1, 1),
      sh_worker("if [ \"$ATTEMPT\" = 1 ]; then kill -9 $$; fi; "
                "touch \"$SHARD_DIR/done\""),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  const ShardState& s = out->shards.at(0);
  EXPECT_EQ(s.status, ShardStatus::kOk);
  EXPECT_EQ(s.history.at(0).outcome, "crashed");
}

TEST(Campaign, HungWorkerIsKilledAtTheDeadlineAndRetried) {
  const std::string dir = fresh_dir("campaign_timeout");
  DiagnosticSink sink;
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.shard_timeout_s = 0.2;
  CampaignSupervisor sup(
      opt,
      sh_worker("if [ \"$ATTEMPT\" = 1 ]; then sleep 30; fi; "
                "touch \"$SHARD_DIR/done\""),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  const ShardState& s = out->shards.at(0);
  EXPECT_EQ(s.status, ShardStatus::kOk);
  EXPECT_EQ(s.history.at(0).outcome, "timeout");
}

TEST(Campaign, CorruptOutputIsASupervisorVerdict) {
  const std::string dir = fresh_dir("campaign_corrupt");
  DiagnosticSink sink;
  // The worker always exits 0; only on attempt >= 2 does it write the
  // artifact the validator demands. Attempt 1 is a liar.
  CampaignSupervisor sup(
      fast_options(dir, 1, 1),
      sh_worker("if [ \"$ATTEMPT\" != 1 ]; then touch \"$SHARD_DIR/done\"; "
                "fi; exit 0"),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  const ShardState& s = out->shards.at(0);
  EXPECT_EQ(s.status, ShardStatus::kOk);
  ASSERT_GE(s.history.size(), 1u);
  EXPECT_EQ(s.history[0].outcome, "corrupt_output");
  EXPECT_NE(s.history[0].detail.find("done marker missing"),
            std::string::npos);
}

TEST(Campaign, ResumeSkipsValidatedShardsAndResetsQuarantine) {
  const std::string dir = fresh_dir("campaign_resume");
  DiagnosticSink sink;
  {
    CampaignSupervisor sup(
        fast_options(dir, 1, 2),
        sh_worker("if [ \"$SHARD_ID\" = L4_f1 ]; then exit 9; fi; "
                  "touch \"$SHARD_DIR/done\""),
        marker_validator, sink);
    auto first = sup.run(nullptr);
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->shards_quarantined, 1);
  }
  // Resume with a worker that now succeeds everywhere. L4_f0 must not
  // rerun (its marker is deleted, so a rerun would quarantine it), and
  // the previously quarantined L4_f1 must get a fresh attempt budget.
  fs::remove(CampaignSupervisor::shard_dir(dir, {4, 0}) + "/done");
  CampaignOptions opt = fast_options(dir, 1, 2);
  opt.resume = true;
  DiagnosticSink sink2;
  CampaignSupervisor sup(
      opt,
      sh_worker("if [ \"$SHARD_ID\" = L4_f0 ]; then exit 9; fi; "
                "touch \"$SHARD_DIR/done\""),
      [](const ShardSpec& spec, const std::string& shard_dir)
          -> StatusOr<std::uint64_t> {
        // Model "L4_f0's artifacts are intact" despite the deleted
        // marker: re-validation passes, so it must not be rerun.
        if (spec.id() == "L4_f0") return std::uint64_t{0xAAAA};
        return marker_validator(spec, shard_dir);
      },
      sink2);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  EXPECT_EQ(out->shards_ok, 2);
  const ShardState* f1 = find_shard(*out, "L4_f1");
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->status, ShardStatus::kOk);
}

TEST(Campaign, ResumeRevalidationDemotesARottedOkShard) {
  const std::string dir = fresh_dir("campaign_rot");
  DiagnosticSink sink;
  {
    CampaignSupervisor sup(fast_options(dir, 1, 1),
                           sh_worker("touch \"$SHARD_DIR/done\""),
                           marker_validator, sink);
    ASSERT_TRUE(sup.run(nullptr).ok());
  }
  // Rot the artifact behind campaign.json's back, then resume.
  fs::remove(CampaignSupervisor::shard_dir(dir, {4, 0}) + "/done");
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.resume = true;
  DiagnosticSink sink2;
  CampaignSupervisor sup(opt, sh_worker("touch \"$SHARD_DIR/done\""),
                         marker_validator, sink2);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->complete) << "the demoted shard must be recomputed";
  EXPECT_EQ(out->shards.at(0).status, ShardStatus::kOk);
  bool noted = false;
  for (const auto& d : sink2.diagnostics()) {
    if (d.code == "campaign.revalidate_failed") noted = true;
  }
  EXPECT_TRUE(noted);
}

// campaign.json is a file anyone can edit. Resume must not take a
// negative or out-of-int attempt count from it: read as written, -5
// would buy L8_f0 seven attempts under a budget of two, and 2^32 + 1
// would wrap L8_f1's count to 1 and leave it a single attempt.
TEST(Campaign, ResumeRangeChecksPersistedAttempts) {
  const std::string dir = fresh_dir("campaign_resume_attempts");
  std::ofstream(CampaignSupervisor::state_path(dir))
      << "{\"format_version\": 1, \"shards\": ["
         "{\"id\": \"L8_f0\", \"status\": \"pending\", \"attempts\": -5, "
         "\"degraded\": false, \"history\": []}, "
         "{\"id\": \"L8_f1\", \"status\": \"pending\", "
         "\"attempts\": 4294967297, \"degraded\": false, \"history\": []}]}\n";
  CampaignOptions opt = fast_options(dir, 1, 2);
  opt.layers = {8};
  opt.max_attempts = 2;
  opt.resume = true;
  DiagnosticSink sink;
  CampaignSupervisor sup(opt, sh_worker("exit 9"), marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  ASSERT_EQ(out->shards.size(), 2u);
  for (const ShardState& s : out->shards) {
    SCOPED_TRACE(s.spec.id());
    EXPECT_EQ(s.status, ShardStatus::kQuarantined);
    EXPECT_EQ(s.attempts, 2);
    ASSERT_EQ(s.history.size(), 2u);
    EXPECT_EQ(s.history[0].attempt, 1);
    EXPECT_EQ(s.history[1].attempt, 2);
  }
}

TEST(Campaign, SecondSupervisorFailsFastOnTheCampaignLock) {
  const std::string dir = fresh_dir("campaign_lock");
  DiagnosticSink sink;
  auto lock = repro::common::FileLock::acquire(dir + "/campaign.lock",
                                               "other-supervisor", sink);
  ASSERT_TRUE(lock.ok());
  CampaignSupervisor sup(fast_options(dir, 1, 1),
                         sh_worker("touch \"$SHARD_DIR/done\""),
                         marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(out.status().message().find("other-supervisor"),
            std::string::npos);
}

TEST(Campaign, PreCancelledTokenLeavesShardsPending) {
  const std::string dir = fresh_dir("campaign_cancel");
  DiagnosticSink sink;
  CancelToken cancel;
  cancel.request_cancel();
  CampaignSupervisor sup(fast_options(dir, 1, 2),
                         sh_worker("touch \"$SHARD_DIR/done\""),
                         marker_validator, sink);
  auto out = sup.run(&cancel);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->cancelled);
  EXPECT_FALSE(out->complete);
  for (const auto& s : out->shards) {
    EXPECT_EQ(s.status, ShardStatus::kPending);
  }
}

TEST(Campaign, ObsCountersAccountForEveryShard) {
  const std::string dir = fresh_dir("campaign_counters");
  repro::common::obs::set_enabled(true);
  repro::common::obs::reset_metrics();
  DiagnosticSink sink;
  // 3 shards: f0 ok immediately, f1 ok after one retry, f2 quarantined.
  CampaignSupervisor sup(
      fast_options(dir, 1, 3),
      sh_worker("case \"$SHARD_ID\" in "
                "L4_f0) touch \"$SHARD_DIR/done\";; "
                "L4_f1) if [ \"$ATTEMPT\" = 1 ]; then exit 9; fi; "
                "touch \"$SHARD_DIR/done\";; "
                "*) exit 9;; esac"),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  repro::common::obs::set_enabled(false);
  ASSERT_TRUE(out.ok());
  const auto metrics = repro::common::obs::snapshot_metrics();
  auto value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& m : metrics) {
      if (m.name == name) return m.count;
    }
    return 0;
  };
  EXPECT_EQ(value("campaign.shards_ok"), 2u);
  EXPECT_EQ(value("campaign.shards_quarantined"), 1u);
  // f1 retried once; f2 burned max_attempts, i.e. 2 retries after the
  // first attempt.
  EXPECT_EQ(value("campaign.shards_retried"), 3u);
  EXPECT_GT(value("campaign.retry_backoff_ms"), 0u);
  EXPECT_EQ(value("campaign.shards_ok") + value("campaign.shards_quarantined"),
            out->shards.size());
  repro::common::obs::reset_metrics();
}

// --- cross-process telemetry ------------------------------------------------

/// Shell fragment that appends one telemetry record. The supervisor
/// only needs kind/seq (parse contract) plus pid/progress (the advance
/// rule) — everything else defaults.
std::string telemetry_line(int seq, int pid, int progress,
                           const std::string& phase) {
  return "printf '%s\\n' '{\"kind\": \"heartbeat\", \"seq\": " +
         std::to_string(seq) + ", \"pid\": " + std::to_string(pid) +
         ", \"progress\": " + std::to_string(progress) + ", \"phase\": \"" +
         phase + "\"}' >> \"$SHARD_DIR/telemetry.jsonl\"; ";
}

TEST(CampaignTelemetry, StallKillDistinguishesHungFromSlowAndRetries) {
  const std::string dir = fresh_dir("campaign_stall_kill");
  DiagnosticSink sink;
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.shard_timeout_s = 60;  // the hard timeout must NOT be what fires
  opt.heartbeat_s = 0.05;    // enables the telemetry layer
  opt.stall_after_s = 0.4;
  opt.stall_kill = true;
  // Attempt 1 plays a hung worker: heartbeats keep arriving but
  // progress is frozen, then it sleeps far past the stall threshold.
  // Attempt 2 succeeds, proving "stalled" settled as retryable.
  CampaignSupervisor sup(
      opt,
      sh_worker("if [ \"$ATTEMPT\" = 1 ]; then " +
                telemetry_line(0, 100, 5, "train") +
                telemetry_line(1, 100, 5, "train") +
                "sleep 30; else touch \"$SHARD_DIR/done\"; fi"),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  const ShardState* st = find_shard(*out, "L4_f0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->status, ShardStatus::kOk);
  EXPECT_TRUE(st->stalled);
  ASSERT_GE(st->history.size(), 1u);
  EXPECT_EQ(st->history[0].outcome, "stalled");
  EXPECT_EQ(out->stalled_shards, (std::vector<std::string>{"L4_f0"}));
  EXPECT_GE(out->retries, 1);
  // The telemetry layer also leaves the final status document behind.
  EXPECT_TRUE(fs::exists(dir + "/campaign_status.json"));
}

TEST(CampaignTelemetry, DetectOnlyStallFlagsButLetsTheWorkerFinish) {
  const std::string dir = fresh_dir("campaign_stall_detect");
  DiagnosticSink sink;
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.shard_timeout_s = 60;
  opt.heartbeat_s = 0.05;
  opt.stall_after_s = 0.3;  // stall_kill stays false: detect-only
  CampaignSupervisor sup(
      opt,
      sh_worker(telemetry_line(0, 100, 5, "score") +
                "sleep 1; touch \"$SHARD_DIR/done\""),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete);
  const ShardState* st = find_shard(*out, "L4_f0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->status, ShardStatus::kOk);  // finished despite the flag
  EXPECT_TRUE(st->stalled);
  EXPECT_TRUE(st->history.empty());  // no attempt was failed for it
  EXPECT_EQ(out->stalled_shards, (std::vector<std::string>{"L4_f0"}));
}

TEST(CampaignTelemetry, QuarantinedShardEmbedsItsLastTelemetryRecord) {
  const std::string dir = fresh_dir("campaign_telemetry_death");
  DiagnosticSink sink;
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.max_attempts = 1;
  opt.heartbeat_s = 0.05;
  CampaignSupervisor sup(
      opt,
      sh_worker(telemetry_line(0, 100, 7, "train") + "exit 9"),
      marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  const ShardState* st = find_shard(*out, "L4_f0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->status, ShardStatus::kQuarantined);
  // The phase/progress at death travelled through the tail into the
  // shard state (and from there into campaign.json and the report).
  ASSERT_TRUE(st->has_telemetry);
  EXPECT_EQ(st->last_telemetry.phase, "train");
  EXPECT_EQ(st->last_telemetry.progress, 7u);
  std::ifstream f(CampaignSupervisor::state_path(dir));
  const std::string state((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(state.find("last_telemetry"), std::string::npos);
  EXPECT_NE(state.find("\"phase\": \"train\""), std::string::npos);
}

// An ok shard is not rerun on resume, so its last telemetry record —
// which report.json embeds — comes back from campaign.json, folds_done
// included.
TEST(CampaignTelemetry, ResumeKeepsFoldsDone) {
  const std::string dir = fresh_dir("campaign_resume_folds_done");
  CampaignOptions opt = fast_options(dir, 1, 1);
  opt.heartbeat_s = 0.05;
  {
    DiagnosticSink sink;
    CampaignSupervisor sup(
        opt,
        sh_worker("printf '%s\\n' '{\"kind\": \"final\", \"seq\": 0, "
                  "\"pid\": 100, \"progress\": 9, \"folds_done\": 1, "
                  "\"phase\": \"done\"}' >> \"$SHARD_DIR/telemetry.jsonl\"; "
                  "touch \"$SHARD_DIR/done\""),
        marker_validator, sink);
    auto first = sup.run(nullptr);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    ASSERT_TRUE(first->complete);
    EXPECT_EQ(first->shards.at(0).last_telemetry.folds_done, 1u);
  }
  opt.resume = true;
  DiagnosticSink sink;
  CampaignSupervisor sup(opt, sh_worker("exit 9"), marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->complete) << "the ok shard must not rerun";
  const ShardState& s = out->shards.at(0);
  ASSERT_TRUE(s.has_telemetry);
  EXPECT_EQ(s.last_telemetry.phase, "done");
  EXPECT_EQ(s.last_telemetry.folds_done, 1u);
}

TEST(CampaignTelemetry, HeartbeatZeroKeepsTheLayerOff) {
  const std::string dir = fresh_dir("campaign_no_telemetry");
  DiagnosticSink sink;
  CampaignSupervisor sup(fast_options(dir, 1, 1),  // heartbeat_s = 0
                         sh_worker("touch \"$SHARD_DIR/done\""),
                         marker_validator, sink);
  auto out = sup.run(nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->complete);
  EXPECT_FALSE(fs::exists(dir + "/campaign_status.json"));
  EXPECT_TRUE(out->rollup_json.empty());
}

// --- retry backoff jitter (satellite b) ---------------------------------
//
// Before jitter, a batch of shards failing together (one dead machine,
// one bad artifact store) all requeued with identical min(base*2^(n-1),
// max) delays and woke in lockstep, hammering whatever they were
// waiting on. The jittered schedule scales each delay into
// [0.5*step, step] by a hash of (seed, shard id, attempt) — spread out,
// yet fully reproducible.

TEST(CampaignBackoff, JitterIsDeterministicPerSeedShardAndAttempt) {
  CampaignOptions opt;
  opt.backoff_base_ms = 100;
  opt.backoff_max_ms = 800;
  opt.backoff_jitter_seed = 42;
  ShardSpec spec{8, 3};
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(repro::core::retry_backoff_ms(opt, spec, attempt),
              repro::core::retry_backoff_ms(opt, spec, attempt));
  }
  // The schedule itself, pinned (17 significant digits round-trip).
  const double expected[] = {96.135337253754201, 144.83736910867714,
                             333.73277586450484, 779.53054948544502,
                             483.58093553329792};
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(repro::core::retry_backoff_ms(opt, spec, attempt),
              expected[attempt - 1])
        << "attempt " << attempt;
  }
}

TEST(CampaignBackoff, JitterStaysInsideTheExponentialEnvelope) {
  CampaignOptions opt;
  opt.backoff_base_ms = 100;
  opt.backoff_max_ms = 800;
  opt.backoff_jitter_seed = 7;
  ShardSpec spec{6, 0};
  for (int attempt = 1; attempt <= 7; ++attempt) {
    const double step =
        std::min(100.0 * (1 << (attempt - 1)), opt.backoff_max_ms);
    const double d = repro::core::retry_backoff_ms(opt, spec, attempt);
    EXPECT_GE(d, 0.5 * step) << "attempt " << attempt;
    EXPECT_LE(d, step) << "attempt " << attempt;
  }
  // The cap holds even deep into the schedule.
  EXPECT_LE(repro::core::retry_backoff_ms(opt, spec, 30),
            opt.backoff_max_ms);
}

TEST(CampaignBackoff, ShardsFailingTogetherDoNotWakeInLockstep) {
  CampaignOptions opt;
  opt.backoff_base_ms = 100;
  opt.backoff_max_ms = 800;
  opt.backoff_jitter_seed = 1;
  // Same attempt across many shards: the delays must not collapse to
  // one value (that is the pre-jitter thundering herd).
  std::vector<double> delays;
  for (int layer : {4, 6, 8}) {
    for (std::int64_t fold = 0; fold < 4; ++fold) {
      delays.push_back(
          repro::core::retry_backoff_ms(opt, ShardSpec{layer, fold}, 2));
    }
  }
  std::sort(delays.begin(), delays.end());
  EXPECT_NE(delays.front(), delays.back());
  // A different campaign seed reshuffles every delay stream.
  CampaignOptions other = opt;
  other.backoff_jitter_seed = 2;
  EXPECT_NE(repro::core::retry_backoff_ms(opt, ShardSpec{4, 0}, 2),
            repro::core::retry_backoff_ms(other, ShardSpec{4, 0}, 2));
}

}  // namespace
