// Worker-side telemetry tests: record round-trip, the crash-safe JSONL
// append/read protocol (torn tails are skipped, never fatal), the
// incremental tail used by the campaign supervisor, the heartbeat
// thread, phase/RSS sampling, and the Prometheus rendering.
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/obs.hpp"

namespace {

namespace fs = std::filesystem;
namespace obs = repro::common::obs;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  f << bytes;
}

/// Tests mutate the global obs registry; start each from a clean,
/// enabled state and drop back to disabled at the end.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_metrics();
    obs::set_phase("idle");
  }
  void TearDown() override {
    obs::reset_metrics();
    obs::set_phase("idle");
    obs::set_enabled(false);
  }
};

TEST_F(TelemetryTest, RecordRoundTripsThroughJson) {
  obs::TelemetryRecord rec;
  rec.kind = "heartbeat";
  rec.seq = 42;
  rec.pid = 1234;
  rec.t = 1723200000.25;
  rec.phase = "train";
  rec.progress = 99;
  rec.targets_done = 7;
  rec.pairs_scored = 11;
  rec.trees_done = 13;
  rec.folds_done = 3;
  rec.rss_mb = 120;
  rec.rss_peak_mb = 150;
  rec.pressure = "high";

  auto parsed = obs::parse_telemetry_line(rec.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->kind, "heartbeat");
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_EQ(parsed->pid, 1234);
  EXPECT_DOUBLE_EQ(parsed->t, 1723200000.25);
  EXPECT_EQ(parsed->phase, "train");
  EXPECT_EQ(parsed->progress, 99u);
  EXPECT_EQ(parsed->targets_done, 7u);
  EXPECT_EQ(parsed->pairs_scored, 11u);
  EXPECT_EQ(parsed->trees_done, 13u);
  EXPECT_EQ(parsed->folds_done, 3u);
  EXPECT_EQ(parsed->rss_mb, 120);
  EXPECT_EQ(parsed->rss_peak_mb, 150);
  EXPECT_EQ(parsed->pressure, "high");
}

TEST_F(TelemetryTest, ParseRejectsGarbageAndTruncatedRecords) {
  EXPECT_FALSE(obs::parse_telemetry_line("").ok());
  EXPECT_FALSE(obs::parse_telemetry_line("not json at all").ok());
  EXPECT_FALSE(obs::parse_telemetry_line("{\"pid\": 1}").ok());  // no kind/seq
  // A torn write: valid prefix of a real record.
  obs::TelemetryRecord rec;
  const std::string full = rec.to_json();
  EXPECT_FALSE(obs::parse_telemetry_line(full.substr(0, full.size() / 2)).ok());
}

TEST_F(TelemetryTest, ReadTelemetrySkipsTornTailAndGarbageLines) {
  const std::string dir = fresh_dir("telemetry_torn");
  const std::string path = dir + "/telemetry.jsonl";
  {
    auto writer = obs::TelemetryWriter::open(path);
    ASSERT_TRUE(writer.ok());
    obs::TelemetryRecord rec;
    rec.kind = "start";
    rec.seq = 0;
    ASSERT_TRUE(writer->append(rec).ok());
    rec.kind = "heartbeat";
    rec.seq = 1;
    ASSERT_TRUE(writer->append(rec).ok());
  }
  // A line of garbage mid-file, then a torn (newline-less) tail, as a
  // SIGKILL mid-write would leave it.
  append_raw(path, "{broken json}\n");
  obs::TelemetryRecord tail;
  tail.seq = 2;
  const std::string full = tail.to_json();
  append_raw(path, full.substr(0, full.size() - 5));

  obs::TelemetryTail reader(path);
  std::vector<obs::TelemetryRecord> records;
  EXPECT_EQ(reader.poll(records), 2u);  // the garbage line is skipped
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "start");
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(reader.poll(records), 0u);  // the torn tail is not delivered
  EXPECT_EQ(records.size(), 2u);
}

TEST_F(TelemetryTest, ReadTelemetryMissingFileIsEmptyNotError) {
  const std::string dir = fresh_dir("telemetry_missing");
  obs::TelemetryTail reader(dir + "/nope.jsonl");
  std::vector<obs::TelemetryRecord> records;
  EXPECT_EQ(reader.poll(records), 0u);
  EXPECT_TRUE(records.empty());
}

TEST_F(TelemetryTest, TailHoldsIncompleteLineUntilNewlineLands) {
  const std::string dir = fresh_dir("telemetry_tail");
  const std::string path = dir + "/telemetry.jsonl";
  obs::TelemetryTail tail(path);
  std::vector<obs::TelemetryRecord> got;

  EXPECT_EQ(tail.poll(got), 0u);  // file does not exist yet

  obs::TelemetryRecord rec;
  rec.seq = 0;
  append_raw(path, rec.to_json() + "\n");
  EXPECT_EQ(tail.poll(got), 1u);
  ASSERT_EQ(got.size(), 1u);

  // A half-written record must NOT be consumed...
  rec.seq = 1;
  const std::string full = rec.to_json();
  append_raw(path, full.substr(0, 10));
  EXPECT_EQ(tail.poll(got), 0u);
  // ...and must be delivered intact once its newline lands.
  append_raw(path, full.substr(10) + "\n");
  EXPECT_EQ(tail.poll(got), 1u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].seq, 1u);

  EXPECT_EQ(tail.poll(got), 0u);  // nothing new
}

TEST_F(TelemetryTest, SampleTelemetrySumsAllCountersIntoProgress) {
  obs::counter("a.one").add(2);
  obs::counter("b.two").add(3);
  obs::counter("attack.targets_done").add(4);
  obs::counter("loo.folds_done").add(1);
  const obs::TelemetryRecord rec = obs::sample_telemetry(nullptr);
  EXPECT_EQ(rec.progress, 2u + 3u + 4u + 1u);
  EXPECT_EQ(rec.targets_done, 4u);
  EXPECT_EQ(rec.folds_done, 1u);
  EXPECT_EQ(rec.pressure, "");  // no budget
  EXPECT_GT(rec.pid, 0);
  EXPECT_GT(rec.t, 0);
}

TEST_F(TelemetryTest, PhaseMarkerDefaultsToIdleAndTracksSetPhase) {
  EXPECT_STREQ(obs::current_phase(), "idle");
  obs::set_phase("score");
  EXPECT_STREQ(obs::current_phase(), "score");
  EXPECT_EQ(obs::sample_telemetry(nullptr).phase, "score");
}

TEST_F(TelemetryTest, RssSamplingIsPositiveAndPeakIsMonotone) {
  const long now = obs::sample_rss();
  EXPECT_GT(now, 0);  // this test binary surely has >1 MiB resident
  EXPECT_GE(obs::rss_peak_mb(), obs::rss_mb());
  const long peak_before = obs::rss_peak_mb();
  obs::sample_rss();
  EXPECT_GE(obs::rss_peak_mb(), peak_before);
}

TEST_F(TelemetryTest, HeartbeatWritesStartHeartbeatsAndFinal) {
  const std::string dir = fresh_dir("telemetry_heartbeat");
  const std::string path = dir + "/telemetry.jsonl";
  obs::Heartbeat::Options opt;
  opt.path = path;
  opt.interval_s = 0.01;
  auto hb = obs::Heartbeat::start(opt);
  ASSERT_TRUE(hb.ok()) << hb.status().to_string();
  // Let a few intervals elapse, with progress moving in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  obs::counter("work.items").add(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  (*hb)->stop();
  EXPECT_GE((*hb)->records_written(), 3u);  // start + >=1 heartbeat + final

  std::vector<obs::TelemetryRecord> records;
  obs::TelemetryTail(path).poll(records);
  // Every record written reads back: no line was torn or malformed.
  EXPECT_EQ(records.size(), (*hb)->records_written());
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records.front().kind, "start");
  EXPECT_EQ(records.back().kind, "final");
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].seq, records[i - 1].seq);
    EXPECT_GE(records[i].progress, records[i - 1].progress);
  }
  EXPECT_EQ(records.back().progress, 5u);
  // stop() is idempotent and the destructor tolerates a prior stop.
  (*hb)->stop();
}

TEST_F(TelemetryTest, HeartbeatSampleOnlyModeWritesNothingButSamplesRss) {
  obs::Heartbeat::Options opt;  // empty path = sample-only
  opt.interval_s = 0.01;
  auto hb = obs::Heartbeat::start(opt);
  ASSERT_TRUE(hb.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  (*hb)->stop();
  EXPECT_EQ((*hb)->records_written(), 0u);
  EXPECT_GT(obs::rss_peak_mb(), 0);
}

TEST_F(TelemetryTest, PrometheusTextRendersCountersGaugesHistograms) {
  obs::counter("attack.pairs_scored").add(17);
  obs::gauge("run.threads").set(4);
  const double edges[] = {1.0, 10.0};
  obs::histogram("attack.top_size", edges).observe(0.5);
  obs::histogram("attack.top_size", edges).observe(5.0);
  obs::histogram("attack.top_size", edges).observe(50.0);
  obs::sample_rss();

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE repro_attack_pairs_scored_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("repro_attack_pairs_scored_total 17"),
            std::string::npos);
  EXPECT_NE(text.find("repro_run_threads 4"), std::string::npos);
  EXPECT_NE(text.find("repro_attack_top_size_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("repro_attack_top_size_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("repro_attack_top_size_count 3"), std::string::npos);
  // Prometheus histograms REQUIRE the _sum series; its omission broke
  // rate(..._sum[5m])/rate(..._count[5m]) mean queries. 0.5+5+50 = 55.5
  // exactly (the sum is tracked in fixed-point micros, rendered %.12g).
  EXPECT_NE(text.find("repro_attack_top_size_sum 55.5"), std::string::npos);
  // _sum precedes _count, matching the canonical exposition order.
  EXPECT_LT(text.find("repro_attack_top_size_sum"),
            text.find("repro_attack_top_size_count"));
  EXPECT_NE(text.find("repro_rss_peak_mb"), std::string::npos);

  // The explicit-snapshot overload honours the caller's prefix — and
  // carries the _sum series too (this is the campaign roll-up path).
  const std::string rolled =
      obs::prometheus_text(obs::snapshot_metrics(), "campaign_");
  EXPECT_NE(rolled.find("campaign_attack_pairs_scored_total 17"),
            std::string::npos);
  EXPECT_NE(rolled.find("campaign_attack_top_size_sum 55.5"),
            std::string::npos);
}

}  // namespace
