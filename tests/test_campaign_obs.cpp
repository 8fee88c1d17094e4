// Campaign observability tests: the cross-shard metrics roll-up (sum
// counters and histogram buckets, drop gauges, fail on edge mismatch),
// the multi-process trace merge (pid remap, metadata tracks, byte
// stability), status rendering (final mode omits volatile fields),
// scan_campaign_dir over a hand-built campaign directory, and the shard
// table's one row codec (round trip, the previous layout, hostile rows).
#include "core/campaign_obs.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/telemetry.hpp"

namespace {

namespace fs = std::filesystem;
namespace obs = repro::common::obs;
using repro::common::StatusCode;
using repro::core::CampaignObsSnapshot;
using repro::core::ShardAttempt;
using repro::core::ShardState;
using repro::core::ShardStatus;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream f(path, std::ios::binary);
  f << text;
}

TEST(MetricsRollup, SumsCountersAndHistogramBucketsAndDropsGauges) {
  const std::string dir = fresh_dir("rollup_sum");
  // Shaped like obs metrics_json(): counters as integer fields, gauges
  // as fractional numbers, histograms as edges/counts/total objects.
  write_file(dir + "/m1.json",
             "{\"attack.pairs_scored\": 10, \"run.threads\": 2.5, "
             "\"lat\": {\"edges\": [1, 10], \"counts\": [1, 2, 0], "
             "\"total\": 3}}");
  write_file(dir + "/m2.json",
             "{\"attack.pairs_scored\": 5, \"ml.trees_grown\": 7, "
             "\"lat\": {\"edges\": [1, 10], \"counts\": [0, 1, 4], "
             "\"total\": 5}}");

  auto rollup = repro::core::rollup_shard_metrics(
      {dir + "/m1.json", dir + "/m2.json"});
  ASSERT_TRUE(rollup.ok()) << rollup.status().to_string();
  EXPECT_EQ(rollup->shards, 2);
  ASSERT_EQ(rollup->metrics.size(), 3u);  // 2 counters + 1 histogram
  // Sorted by name: attack.pairs_scored, lat, ml.trees_grown.
  EXPECT_EQ(rollup->metrics[0].name, "attack.pairs_scored");
  EXPECT_EQ(rollup->metrics[0].count, 15u);
  EXPECT_EQ(rollup->metrics[1].name, "lat");
  EXPECT_EQ(rollup->metrics[1].buckets,
            (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(rollup->metrics[1].count, 8u);
  EXPECT_EQ(rollup->metrics[2].name, "ml.trees_grown");
  EXPECT_EQ(rollup->metrics[2].count, 7u);
  // The gauge never reaches the roll-up document.
  EXPECT_EQ(rollup->json.find("run.threads"), std::string::npos);
  EXPECT_EQ(rollup->digest, repro::common::fnv1a64(rollup->json));

  // Same inputs, same bytes, same digest — the cross-worker-count
  // invariance check rests on this.
  auto again = repro::core::rollup_shard_metrics(
      {dir + "/m1.json", dir + "/m2.json"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->json, rollup->json);
  EXPECT_EQ(again->digest, rollup->digest);
}

TEST(MetricsRollup, SumsHistogramSumMicrosAndToleratesItsAbsence) {
  const std::string dir = fresh_dir("rollup_sum_micros");
  // m1 carries the fixed-point observation sum; m2 is an old-format
  // shard file without one (treated as 0, not an error).
  write_file(dir + "/m1.json",
             "{\"lat\": {\"edges\": [1, 10], \"counts\": [1, 2, 0], "
             "\"total\": 3, \"sum_micros\": 5500000}}");
  write_file(dir + "/m2.json",
             "{\"lat\": {\"edges\": [1, 10], \"counts\": [0, 1, 0], "
             "\"total\": 1}}");
  auto rollup = repro::core::rollup_shard_metrics(
      {dir + "/m1.json", dir + "/m2.json"});
  ASSERT_TRUE(rollup.ok()) << rollup.status().to_string();
  ASSERT_EQ(rollup->metrics.size(), 1u);
  EXPECT_EQ(rollup->metrics[0].count, 4u);
  EXPECT_EQ(rollup->metrics[0].sum_micros, 5500000);
  EXPECT_NE(rollup->json.find("\"sum_micros\": 5500000"),
            std::string::npos);
  // The roll-up's Prometheus rendering carries the mandatory _sum
  // series (5.5 seconds' worth of micros).
  CampaignObsSnapshot snap;
  snap.rollup_metrics = rollup->metrics;
  snap.rollup_json = rollup->json;
  const std::string prom = repro::core::campaign_prometheus_text(snap);
  EXPECT_NE(prom.find("campaign_lat_sum 5.5"), std::string::npos);
}

TEST(MetricsRollup, HistogramEdgeMismatchIsFailedPrecondition) {
  const std::string dir = fresh_dir("rollup_edges");
  write_file(dir + "/m1.json",
             "{\"lat\": {\"edges\": [1, 10], \"counts\": [1, 0, 0], "
             "\"total\": 1}}");
  write_file(dir + "/m2.json",
             "{\"lat\": {\"edges\": [1, 100], \"counts\": [1, 0, 0], "
             "\"total\": 1}}");
  auto rollup = repro::core::rollup_shard_metrics(
      {dir + "/m1.json", dir + "/m2.json"});
  ASSERT_FALSE(rollup.ok());
  EXPECT_EQ(rollup.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MetricsRollup, MissingShardMetricsFileFails) {
  const std::string dir = fresh_dir("rollup_missing");
  write_file(dir + "/m1.json", "{\"c\": 1}");
  auto rollup = repro::core::rollup_shard_metrics(
      {dir + "/m1.json", dir + "/nope.json"});
  EXPECT_FALSE(rollup.ok());
}

TEST(TraceMerge, RemapsPidsAddsTrackNamesAndPreservesRawNumbers) {
  const std::string dir = fresh_dir("trace_merge");
  // ts 1.25 must survive byte-for-byte: a double round-trip could
  // reformat it and break the promised byte stability.
  write_file(dir + "/t1.json",
             "{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["
             "{\"name\": \"train\", \"cat\": \"repro\", \"ph\": \"X\", "
             "\"pid\": 0, \"tid\": 3, \"ts\": 1.25, \"dur\": 2}]}");
  write_file(dir + "/t2.json",
             "{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["
             "{\"name\": \"score\", \"cat\": \"repro\", \"ph\": \"X\", "
             "\"pid\": 0, \"tid\": 0, \"ts\": 10, \"dur\": 4, "
             "\"args\": {\"v\": 7}}]}");

  auto merged = repro::core::merge_shard_traces(
      {{"L6_f0", dir + "/t1.json"}, {"L6_f1", dir + "/t2.json"}});
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  // Each shard gets a process_name metadata event labelling its pid.
  EXPECT_NE(merged->find("\"process_name\""), std::string::npos);
  EXPECT_NE(merged->find("\"L6_f0\""), std::string::npos);
  EXPECT_NE(merged->find("\"L6_f1\""), std::string::npos);
  // Shard 1's event was remapped from pid 0 to pid 1.
  EXPECT_NE(merged->find("\"name\": \"score\", \"cat\": \"repro\", "
                         "\"ph\": \"X\", \"pid\": 1"),
            std::string::npos);
  EXPECT_NE(merged->find("\"ts\": 1.25"), std::string::npos);
  EXPECT_NE(merged->find("{\"v\":7}"), std::string::npos);

  auto again = repro::core::merge_shard_traces(
      {{"L6_f0", dir + "/t1.json"}, {"L6_f1", dir + "/t2.json"}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *merged);  // byte-stable

  auto missing = repro::core::merge_shard_traces({{"L8_f0", dir + "/no.json"}});
  EXPECT_FALSE(missing.ok());
}

TEST(StatusRender, FinalModeOmitsEveryVolatileField) {
  CampaignObsSnapshot snap;
  snap.finished = true;
  snap.complete = true;
  snap.shards_total = 1;
  snap.shards_ok = 1;
  snap.elapsed_s = 12.5;
  snap.eta_s = 3.0;
  ShardState row;
  row.spec = {6, 0};
  row.status = ShardStatus::kOk;
  row.attempts = 1;
  row.digest = 0xdeadbeef;
  row.has_telemetry = true;
  row.last_telemetry.phase = "done";
  row.last_telemetry.progress = 42;
  row.last_telemetry.rss_peak_mb = 99;
  row.heartbeat_age_s = 1.5;
  row.progress_age_s = 2.5;
  snap.rows.push_back(row);

  const std::string live = repro::core::render_campaign_status(snap, false);
  EXPECT_NE(live.find("\"phase\": \"done\""), std::string::npos);
  EXPECT_NE(live.find("heartbeat_age_s"), std::string::npos);
  EXPECT_NE(live.find("shards_running"), std::string::npos);
  EXPECT_NE(live.find("elapsed_s"), std::string::npos);

  const std::string fin = repro::core::render_campaign_status(snap, true);
  EXPECT_EQ(fin.find("phase"), std::string::npos);
  EXPECT_EQ(fin.find("progress"), std::string::npos);
  EXPECT_EQ(fin.find("rss"), std::string::npos);
  EXPECT_EQ(fin.find("heartbeat_age_s"), std::string::npos);
  EXPECT_EQ(fin.find("elapsed_s"), std::string::npos);
  EXPECT_EQ(fin.find("eta_s"), std::string::npos);
  EXPECT_EQ(fin.find("shards_running"), std::string::npos);
  EXPECT_NE(fin.find("\"state\": \"complete\""), std::string::npos);
  EXPECT_NE(fin.find("\"digest\": \"00000000deadbeef\""), std::string::npos);
}

/// Builds a minimal campaign directory by hand: campaign.json plus
/// per-shard telemetry/metrics files, no supervisor involved.
TEST(ScanCampaignDir, ReadsShardTableTelemetryAndRollup) {
  const std::string dir = fresh_dir("scan_ok");
  write_file(dir + "/campaign.json",
             "{\"format_version\": 1, \"shards\": ["
             "{\"id\": \"L6_f1\", \"layer\": 6, \"fold\": 1, "
             "\"status\": \"ok\", \"attempts\": 1, \"degraded\": false, "
             "\"digest\": \"00000000000000ff\"}, "
             "{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, "
             "\"status\": \"ok\", \"attempts\": 2, \"degraded\": false, "
             "\"digest\": \"0000000000000011\", \"stalled\": true}], "
             "\"remote\": {\"requests\": 7, \"retries\": 2, "
             "\"failovers\": 1, \"breaker_trips\": 1, "
             "\"local_fallbacks\": 0, \"remote_ok\": 2, \"endpoints\": ["
             "{\"endpoint\": \"127.0.0.1:9001\", \"state\": \"open\", "
             "\"requests\": 4, \"failures\": 3}, "
             "{\"endpoint\": \"127.0.0.1:9002\", \"state\": \"closed\", "
             "\"requests\": 3, \"failures\": 0}]}}");
  const double now = repro::common::wall_seconds();
  obs::TelemetryRecord rec;
  rec.kind = "final";
  rec.seq = 3;
  rec.pid = 100;
  rec.t = now - 1;
  rec.phase = "done";
  rec.progress = 50;
  rec.rss_peak_mb = 12;
  write_file(dir + "/shards/L6_f0/telemetry.jsonl", rec.to_json() + "\n");
  write_file(dir + "/shards/L6_f0/metrics.json", "{\"c\": 1}");
  write_file(dir + "/shards/L6_f1/metrics.json", "{\"c\": 2}");

  auto snap = repro::core::scan_campaign_dir(dir, /*stall_after_s=*/5);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  EXPECT_TRUE(snap->finished);
  EXPECT_TRUE(snap->complete);
  EXPECT_EQ(snap->shards_total, 2);
  EXPECT_EQ(snap->shards_ok, 2);
  ASSERT_EQ(snap->rows.size(), 2u);
  // Rows come back in (layer, fold) order regardless of file order.
  EXPECT_EQ(snap->rows[0].spec.id(), "L6_f0");
  EXPECT_EQ(snap->rows[1].spec.id(), "L6_f1");
  EXPECT_EQ(snap->rows[0].digest, 0x11u);
  EXPECT_TRUE(snap->rows[0].has_telemetry);
  EXPECT_EQ(snap->rows[0].last_telemetry.progress, 50u);
  EXPECT_FALSE(snap->rows[1].has_telemetry);
  // The persisted ever-stalled flag survives into stalled_shards.
  ASSERT_EQ(snap->stalled_shards.size(), 1u);
  EXPECT_EQ(snap->stalled_shards[0], "L6_f0");
  // All shards ok + metrics present => roll-up computed (c = 1 + 2).
  EXPECT_NE(snap->rollup_json.find("\"c\": 3"), std::string::npos);
  EXPECT_NE(snap->rollup_digest, 0u);

  const std::string prom = repro::core::campaign_prometheus_text(*snap);
  EXPECT_NE(prom.find("campaign_shards_total 2"), std::string::npos);
  EXPECT_NE(prom.find("campaign_shard_progress{shard=\"L6_f0\"} 50"),
            std::string::npos);
  EXPECT_NE(prom.find("campaign_c_total 3"), std::string::npos);
  // The whole exposition, pinned: every series' name, labels, value,
  // type line and order.
  EXPECT_EQ(prom,
            "# TYPE campaign_shards_total gauge\n"
            "campaign_shards_total 2\n"
            "# TYPE campaign_shards_ok gauge\n"
            "campaign_shards_ok 2\n"
            "# TYPE campaign_shards_running gauge\n"
            "campaign_shards_running 0\n"
            "# TYPE campaign_shards_pending gauge\n"
            "campaign_shards_pending 0\n"
            "# TYPE campaign_shards_quarantined gauge\n"
            "campaign_shards_quarantined 0\n"
            "# TYPE campaign_shards_stalled gauge\n"
            "campaign_shards_stalled 1\n"
            "# TYPE campaign_shard_progress gauge\n"
            "campaign_shard_progress{shard=\"L6_f0\"} 50\n"
            "# TYPE campaign_shard_rss_peak_mb gauge\n"
            "campaign_shard_rss_peak_mb{shard=\"L6_f0\"} 12\n"
            "# TYPE campaign_remote_requests_total counter\n"
            "campaign_remote_requests_total 7\n"
            "# TYPE campaign_remote_retries_total counter\n"
            "campaign_remote_retries_total 2\n"
            "# TYPE campaign_remote_failovers_total counter\n"
            "campaign_remote_failovers_total 1\n"
            "# TYPE campaign_remote_breaker_trips_total counter\n"
            "campaign_remote_breaker_trips_total 1\n"
            "# TYPE campaign_remote_local_fallbacks_total counter\n"
            "campaign_remote_local_fallbacks_total 0\n"
            "# TYPE campaign_remote_ok_total counter\n"
            "campaign_remote_ok_total 2\n"
            "# TYPE campaign_remote_endpoint_requests_total counter\n"
            "campaign_remote_endpoint_requests_total{endpoint=\"127.0.0.1:"
            "9001\",state=\"open\"} 4\n"
            "campaign_remote_endpoint_requests_total{endpoint=\"127.0.0.1:"
            "9002\",state=\"closed\"} 3\n"
            "# TYPE campaign_remote_endpoint_failures_total counter\n"
            "campaign_remote_endpoint_failures_total{endpoint=\"127.0.0.1:"
            "9001\"} 3\n"
            "campaign_remote_endpoint_failures_total{endpoint=\"127.0.0.1:"
            "9002\"} 0\n"
            "# TYPE campaign_c_total counter\n"
            "campaign_c_total 3\n");

  // The live status document carries the fleet block verbatim.
  const std::string live =
      repro::core::render_campaign_status(*snap, /*final_mode=*/false);
  const std::size_t begin = live.find("\"remote\": ");
  const std::size_t end = live.find(", \"rollup\": ");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(live.substr(begin, end - begin),
            "\"remote\": {\"requests\": 7, \"retries\": 2, \"failovers\": 1, "
            "\"breaker_trips\": 1, \"local_fallbacks\": 0, \"remote_ok\": 2, "
            "\"endpoints\": [{\"endpoint\": \"127.0.0.1:9001\", \"state\": "
            "\"open\", \"requests\": 4, \"failures\": 3}, {\"endpoint\": "
            "\"127.0.0.1:9002\", \"state\": \"closed\", \"requests\": 3, "
            "\"failures\": 0}]}");
}

// A campaign.json is a file anyone can write. A label value must not be
// able to break out of its quotes into a sample line of its own, and a
// negative counter or digest must not wrap to 2^64 - 1.
TEST(ScanCampaignDir, HostileStringsAndNegativeCountersStayContained) {
  const std::string dir = fresh_dir("scan_hostile");
  write_file(dir + "/campaign.json",
             "{\"shards\": [{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, "
             "\"status\": \"ok\", \"attempts\": 1, \"digest\": \"-1\"}], "
             "\"remote\": {\"requests\": -1, \"endpoints\": [{\"endpoint\": "
             "\"127.0.0.1:1\\\"} 1\\ninjected_total 99\\n#\", "
             "\"requests\": 1}]}}");
  auto snap = repro::core::scan_campaign_dir(dir, /*stall_after_s=*/5);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->rows.size(), 1u);
  EXPECT_EQ(snap->rows[0].digest, 0u);

  const std::string prom = repro::core::campaign_prometheus_text(*snap);
  std::size_t pos = 0;
  while (pos < prom.size()) {
    const std::size_t nl = prom.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "unterminated final line";
    const std::string line = prom.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind('#', 0) == 0) continue;
    EXPECT_EQ(line.rfind("campaign_", 0), 0u) << "stray sample: " << line;
  }
  EXPECT_NE(prom.find("campaign_remote_endpoint_requests_total{endpoint="
                      "\"127.0.0.1:1\\\"} 1\\ninjected_total 99\\n#\","
                      "state=\"closed\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\ncampaign_remote_requests_total 0\n"),
            std::string::npos)
      << prom;
}

TEST(ScanCampaignDir, FlagsRunningShardWithFrozenProgressAsStalled) {
  const std::string dir = fresh_dir("scan_stall");
  write_file(dir + "/campaign.json",
             "{\"shards\": [{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, "
             "\"status\": \"running\", \"attempts\": 1}]}");
  const double now = repro::common::wall_seconds();
  // Heartbeats keep arriving (recent t) but progress froze long ago —
  // the hung-not-slow signature.
  std::string log;
  obs::TelemetryRecord rec;
  rec.pid = 100;
  rec.progress = 50;
  for (int i = 0; i < 3; ++i) {
    rec.seq = static_cast<std::uint64_t>(i);
    rec.t = now - 60 + i;  // all progress-advances happened ~1 min ago
    log += rec.to_json() + "\n";
  }
  rec.seq = 3;
  rec.t = now;  // fresh heartbeat, same progress
  log += rec.to_json() + "\n";
  write_file(dir + "/shards/L6_f0/telemetry.jsonl", log);

  auto snap = repro::core::scan_campaign_dir(dir, /*stall_after_s=*/10);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->rows.size(), 1u);
  EXPECT_TRUE(snap->rows[0].stalled_now);
  EXPECT_LT(snap->rows[0].heartbeat_age_s, 5);   // heartbeat is live
  EXPECT_GT(snap->rows[0].progress_age_s, 10);   // progress is not
  EXPECT_EQ(snap->stalled_shards,
            (std::vector<std::string>{"L6_f0"}));

  // The same directory with a generous threshold is NOT stalled.
  auto lax = repro::core::scan_campaign_dir(dir, /*stall_after_s=*/3600);
  ASSERT_TRUE(lax.ok());
  EXPECT_FALSE(lax->rows[0].stalled_now);
}

TEST(ScanCampaignDir, MissingCampaignJsonIsNotFound) {
  const std::string dir = fresh_dir("scan_none");
  auto snap = repro::core::scan_campaign_dir(dir, 5);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kNotFound);
}

// The satellite-c regression: obs_report --serve used to re-read
// campaign.json plus every shard's whole telemetry log on every scrape
// (quadratic I/O over a campaign's lifetime). The watcher must serve
// repeat polls from its cache and rescan only when a file changes.
TEST(CampaignWatcher, ReusesCachedSnapshotUntilAFileChanges) {
  const std::string dir = fresh_dir("watcher");
  write_file(dir + "/campaign.json",
             "{\"shards\": [{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, "
             "\"status\": \"running\", \"attempts\": 1}]}");
  obs::TelemetryRecord rec;
  rec.kind = "heartbeat";
  rec.seq = 1;
  rec.pid = 100;
  rec.t = repro::common::wall_seconds();
  rec.progress = 10;
  write_file(dir + "/shards/L6_f0/telemetry.jsonl", rec.to_json() + "\n");

  repro::core::CampaignWatcher watcher(dir, /*stall_after_s=*/3600);
  auto first = watcher.poll();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->rows[0].last_telemetry.progress, 10u);
  EXPECT_EQ(watcher.stats().rescans, 1u);
  EXPECT_EQ(watcher.stats().reused, 0u);

  // Nothing changed: the next polls are cache hits with equal content.
  for (int i = 0; i < 3; ++i) {
    auto again = watcher.poll();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->rows[0].last_telemetry.progress, 10u);
    EXPECT_EQ(repro::core::render_campaign_status(*again, true),
              repro::core::render_campaign_status(*first, true));
  }
  EXPECT_EQ(watcher.stats().rescans, 1u);
  EXPECT_EQ(watcher.stats().reused, 3u);

  // A telemetry append (what a live worker does) forces a rescan and
  // the new progress is visible.
  rec.seq = 2;
  rec.t = repro::common::wall_seconds();
  rec.progress = 20;
  std::ofstream(dir + "/shards/L6_f0/telemetry.jsonl",
                std::ios::app | std::ios::binary)
      << rec.to_json() << "\n";
  auto fresh = watcher.poll();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0].last_telemetry.progress, 20u);
  EXPECT_EQ(watcher.stats().rescans, 2u);
  EXPECT_EQ(watcher.stats().polls, 5u);
}

TEST(CampaignWatcher, CachedSnapshotStillRefreshesVolatileAges) {
  const std::string dir = fresh_dir("watcher_ages");
  write_file(dir + "/campaign.json",
             "{\"shards\": [{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, "
             "\"status\": \"running\", \"attempts\": 1}]}");
  obs::TelemetryRecord rec;
  rec.kind = "heartbeat";
  rec.seq = 1;
  rec.pid = 100;
  rec.t = repro::common::wall_seconds();
  rec.progress = 10;
  write_file(dir + "/shards/L6_f0/telemetry.jsonl", rec.to_json() + "\n");

  // A tight stall threshold: the first poll sees a fresh heartbeat (not
  // stalled); a later cached poll must notice the progress age crossing
  // the threshold even though no file changed and no rescan happened.
  repro::core::CampaignWatcher watcher(dir, /*stall_after_s=*/0.2);
  auto first = watcher.poll();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->rows[0].stalled_now);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto later = watcher.poll();
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->rows[0].stalled_now);
  EXPECT_GT(later->rows[0].heartbeat_age_s, first->rows[0].heartbeat_age_s);
  EXPECT_EQ(later->stalled_shards,
            (std::vector<std::string>{"L6_f0"}));
  EXPECT_EQ(watcher.stats().rescans, 1u);
  EXPECT_EQ(watcher.stats().reused, 1u);
}

// --- the shard table's one row format -----------------------------------

/// Every persisted field of two tables is equal (the live-only fields
/// are never written).
void expect_same_rows(const std::vector<ShardState>& got,
                      const std::vector<ShardState>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].spec.id());
    EXPECT_EQ(got[i].spec, want[i].spec);
    EXPECT_EQ(got[i].status, want[i].status);
    EXPECT_EQ(got[i].attempts, want[i].attempts);
    EXPECT_EQ(got[i].degraded, want[i].degraded);
    EXPECT_EQ(got[i].digest, want[i].digest);
    EXPECT_EQ(got[i].stalled, want[i].stalled);
    EXPECT_EQ(got[i].history, want[i].history);
    EXPECT_EQ(got[i].has_telemetry, want[i].has_telemetry);
    const obs::TelemetryRecord& g = got[i].last_telemetry;
    const obs::TelemetryRecord& w = want[i].last_telemetry;
    EXPECT_EQ(g.phase, w.phase);
    EXPECT_EQ(g.progress, w.progress);
    EXPECT_EQ(g.targets_done, w.targets_done);
    EXPECT_EQ(g.pairs_scored, w.pairs_scored);
    EXPECT_EQ(g.folds_done, w.folds_done);
    EXPECT_EQ(g.rss_peak_mb, w.rss_peak_mb);
  }
}

std::string campaign_json(const std::string& rows) {
  return "{\"format_version\": 1, \"shards\": " + rows + "}";
}

TEST(CampaignTable, RoundTrip) {
  ShardState ok;
  ok.spec = {8, 0};
  ok.status = ShardStatus::kOk;
  ok.attempts = 2;
  ok.degraded = true;
  ok.digest = 0x0123456789abcdefULL;
  ok.stalled = true;
  ok.has_telemetry = true;
  ok.last_telemetry.phase = "done";
  ok.last_telemetry.progress = 1234;
  ok.last_telemetry.targets_done = 56;
  ok.last_telemetry.pairs_scored = 7890;
  ok.last_telemetry.folds_done = 1;
  ok.last_telemetry.rss_peak_mb = 321;
  ok.history = {ShardAttempt{1, "stalled", "say \"hi\" \\ then\nstop"}};
  ShardState quarantined;
  quarantined.spec = {8, 1};
  quarantined.status = ShardStatus::kQuarantined;
  quarantined.attempts = 3;
  quarantined.history = {ShardAttempt{1, "crashed", "signal 9"},
                         ShardAttempt{2, "timeout", "SIGKILLed"},
                         ShardAttempt{3, "corrupt_output", "bad CRC"}};
  ShardState pending;
  pending.spec = {6, 12};
  const std::vector<ShardState> table = {ok, quarantined, pending};

  const std::string rows = repro::core::render_shard_rows(table);
  auto parsed = repro::core::parse_campaign_table(campaign_json(rows));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed->remote.has_value());
  expect_same_rows(parsed->shards, table);
  EXPECT_EQ(repro::core::render_shard_rows(parsed->shards), rows);

  // The row format is report.json's, key order included.
  EXPECT_EQ(repro::core::render_shard_rows({ok}),
            "[{\"id\": \"L8_f0\", \"status\": \"ok\", \"attempts\": 2, "
            "\"degraded\": true, \"digest\": \"0123456789abcdef\", "
            "\"stalled\": true, \"last_telemetry\": {\"phase\": \"done\", "
            "\"progress\": 1234, \"targets_done\": 56, \"pairs_scored\": "
            "7890, \"folds_done\": 1, \"rss_peak_mb\": 321}, \"history\": "
            "[{\"attempt\": 1, \"outcome\": \"stalled\", \"detail\": "
            "\"say \\\"hi\\\" \\\\ then\\nstop\"}]}]");

  // The fleet block rides along in campaign.json.
  repro::core::RemoteFleet fleet;
  fleet.stats.requests = 3;
  fleet.stats.remote_ok = 2;
  fleet.endpoints.push_back({"127.0.0.1:9001", "open", 3, 1});
  const std::string fleet_json = repro::core::render_remote_fleet(fleet);
  auto remote = repro::core::parse_campaign_table(
      "{\"format_version\": 1, \"shards\": " + rows +
      ", \"remote\": " + fleet_json + "}");
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  ASSERT_TRUE(remote->remote.has_value());
  EXPECT_EQ(repro::core::render_remote_fleet(*remote->remote), fleet_json);
  expect_same_rows(remote->shards, table);
}

TEST(CampaignTable, ReadsParentFormat) {
  // campaign.json as the previous writer laid it out: "layer" and
  // "fold" after the id, and no folds_done in last_telemetry.
  const std::string parent = campaign_json(
      "[{\"id\": \"L6_f0\", \"layer\": 6, \"fold\": 0, \"status\": \"ok\", "
      "\"attempts\": 1, \"degraded\": false, \"digest\": "
      "\"00000000000000ff\", \"last_telemetry\": {\"phase\": \"done\", "
      "\"progress\": 50, \"targets_done\": 4, \"pairs_scored\": 9, "
      "\"rss_peak_mb\": 12}, \"history\": []}, "
      "{\"id\": \"L6_f1\", \"layer\": 6, \"fold\": 1, \"status\": "
      "\"quarantined\", \"attempts\": 2, \"degraded\": false, \"stalled\": "
      "true, \"history\": [{\"attempt\": 1, \"outcome\": \"crashed\", "
      "\"detail\": \"signal 9\"}, {\"attempt\": 2, \"outcome\": "
      "\"crashed\", \"detail\": \"signal 9\"}]}]");
  const std::string rows =
      "[{\"id\": \"L6_f0\", \"status\": \"ok\", \"attempts\": 1, "
      "\"degraded\": false, \"digest\": \"00000000000000ff\", "
      "\"last_telemetry\": {\"phase\": \"done\", \"progress\": 50, "
      "\"targets_done\": 4, \"pairs_scored\": 9, \"folds_done\": 0, "
      "\"rss_peak_mb\": 12}, \"history\": []}, "
      "{\"id\": \"L6_f1\", \"status\": \"quarantined\", \"attempts\": 2, "
      "\"degraded\": false, \"stalled\": true, \"history\": [{\"attempt\": "
      "1, \"outcome\": \"crashed\", \"detail\": \"signal 9\"}, "
      "{\"attempt\": 2, \"outcome\": \"crashed\", \"detail\": "
      "\"signal 9\"}]}]";
  auto old_table = repro::core::parse_campaign_table(parent);
  auto new_table = repro::core::parse_campaign_table(campaign_json(rows));
  ASSERT_TRUE(old_table.ok()) << old_table.status().to_string();
  ASSERT_TRUE(new_table.ok()) << new_table.status().to_string();
  expect_same_rows(old_table->shards, new_table->shards);
  ASSERT_EQ(old_table->shards.size(), 2u);
  EXPECT_EQ(old_table->shards[0].spec, (repro::core::ShardSpec{6, 0}));
  EXPECT_EQ(old_table->shards[1].status, ShardStatus::kQuarantined);
  EXPECT_EQ(repro::core::render_shard_rows(old_table->shards), rows);
}

// campaign.json is a file anyone can edit: counts are range-checked,
// ids must be canonical, and a mistyped field reads as its default.
TEST(CampaignTable, HostileRows) {
  auto table = repro::core::parse_campaign_table(campaign_json(
      "[{\"id\": \"L8_f0\", \"status\": \"pending\", \"attempts\": -5, "
      "\"history\": [{\"attempt\": -1, \"outcome\": \"crashed\"}, "
      "{\"attempt\": 4294967297}]}, "
      "{\"id\": \"L8_f1\", \"status\": \"bogus\", "
      "\"attempts\": 4294967297}, "
      "{\"id\": \"L8_f2\", \"status\": 7, \"attempts\": \"3\", "
      "\"degraded\": \"yes\", \"digest\": 12.5, \"last_telemetry\": "
      "{\"phase\": 3, \"progress\": \"many\", \"folds_done\": -1, "
      "\"rss_peak_mb\": \"x\"}, \"history\": \"none\"}, "
      "{\"id\": \"L4_f0x\", \"status\": \"ok\"}, "
      "{\"id\": \"L99_f0\", \"status\": \"ok\"}, "
      "{\"id\": \"L4_f-1\", \"status\": \"ok\"}, "
      "{\"id\": 7}, \"not a row\", "
      "{\"id\": \"L4_f1\", \"layer\": 6, \"fold\": 9, "
      "\"attempts\": 2147483647}]"));
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  ASSERT_EQ(table->shards.size(), 4u);

  const ShardState& neg = table->shards[0];
  EXPECT_EQ(neg.spec.id(), "L8_f0");
  EXPECT_EQ(neg.attempts, 0);
  ASSERT_EQ(neg.history.size(), 2u);
  EXPECT_EQ(neg.history[0].attempt, 0);
  EXPECT_EQ(neg.history[1].attempt, 0);

  const ShardState& wide = table->shards[1];
  EXPECT_EQ(wide.spec.id(), "L8_f1");
  EXPECT_EQ(wide.status, ShardStatus::kPending);  // unknown status
  EXPECT_EQ(wide.attempts, 0);                    // 2^32 + 1

  const ShardState& typed = table->shards[2];
  EXPECT_EQ(typed.status, ShardStatus::kPending);
  EXPECT_EQ(typed.attempts, 0);
  EXPECT_FALSE(typed.degraded);
  EXPECT_EQ(typed.digest, 0u);
  ASSERT_TRUE(typed.has_telemetry);
  EXPECT_EQ(typed.last_telemetry.phase, "");
  EXPECT_EQ(typed.last_telemetry.progress, 0u);
  EXPECT_EQ(typed.last_telemetry.folds_done, 0u);
  EXPECT_EQ(typed.last_telemetry.rss_peak_mb, 0);
  EXPECT_TRUE(typed.history.empty());

  // Layer and fold come from the id, never from their own keys.
  const ShardState& keyed = table->shards[3];
  EXPECT_EQ(keyed.spec, (repro::core::ShardSpec{4, 1}));
  EXPECT_EQ(keyed.attempts, 2147483647);

  using repro::core::ShardSpec;
  for (const char* id : {"L4_f0x", "L99_f0", "L4_f-1", "L0_f0", "L08_f0",
                         "L8_f00", "L+8_f0", "L 8_f0", "L8_f", "L_f0", "",
                         "l8_f0", "L8_f0 ", "L8_f99999999999999999999"}) {
    EXPECT_FALSE(ShardSpec::parse(id).has_value()) << id;
  }
  EXPECT_EQ(ShardSpec::parse("L64_f9223372036854775807"),
            (ShardSpec{64, 9223372036854775807LL}));
  EXPECT_EQ(ShardSpec::parse("L1_f0"), (ShardSpec{1, 0}));

  // A document that is not a shard table is an error, not an empty one.
  for (const char* text : {"", "{", "[]", "{\"shards\": {}}",
                           "{\"format_version\": 1}"}) {
    auto bad = repro::core::parse_campaign_table(text);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << text;
  }
}

}  // namespace
