// Cross-process telemetry: the worker side of campaign observability.
//
// A `split_attack --fold` worker runs in its own process, so the obs
// registry (src/common/obs) is invisible to the supervisor until the
// worker exits. This module exports a live, crash-safe view: a
// background heartbeat thread samples the metrics registry, the current
// phase marker, and the process RSS at a fixed interval and appends one
// JSON record per sample to a per-shard `telemetry.jsonl`.
//
// Crash-safe append protocol
//   The file is opened O_APPEND and every record is one write(2) of a
//   complete line including the trailing '\n'. POSIX O_APPEND makes each
//   write land atomically at the end of the file, so a SIGKILL can leave
//   at most one torn *final* line (a short write mid-record). The reader,
//   `TelemetryTail`, therefore skips any line that does not parse or is
//   not newline-terminated — it never fails on a torn tail, it just
//   surfaces one fewer record.
//
// Progress and stall detection
//   Each record carries `progress`: the sum of every counter in the obs
//   registry. Counters are monotone, so progress is monotone, and it
//   moves whenever the worker does real work (trees grown, targets
//   scored, nets routed...). The supervisor's stall detector keys off
//   progress, not record arrival: a worker whose main thread is hung
//   (REPRO_FAULT=hang parks it inside a checkpoint commit) still has a
//   live heartbeat thread appending records, but its progress freezes —
//   which is exactly the signal that distinguishes "hung" from "slow".
//
// Snapshot semantics: the heartbeat thread reads counters with relaxed
// atomics concurrently with worker updates. Values may be mid-flight
// (that is fine for monitoring a monotone quantity); the serial-point
// exactness contract of obs.hpp applies only to the end-of-run flush.
//
// RSS lives OUTSIDE the obs registry on purpose: metrics_json() files
// are byte-compared across thread counts and runs (check_obs.sh,
// bench_attack's metrics_identical), and a resident-set gauge would
// differ run to run. Peak RSS is tracked in module-local atomics and
// surfaced through telemetry records, run-report fields, and the
// Prometheus rendering instead.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.hpp"

namespace repro::common {
class Budget;
}

namespace repro::common::obs {

// --- phase marker -----------------------------------------------------------
// A coarse, lock-free "what is the worker doing" label ("ingest",
// "train", "score", "report", "done"). Must be a string literal (the
// pointer is stored raw). Under parallel LOO folds phases interleave and
// last-writer-wins — the marker is a monitoring hint, not a trace.
void set_phase(const char* phase);
const char* current_phase();

// --- RSS sampling (satellite: periodic, not just at budget checks) ----------
/// Samples /proc RSS now, updates the module-local current/peak values,
/// and returns the current RSS in MiB. Called by the heartbeat thread
/// each tick and usable from serial points directly.
long sample_rss();
/// Last sampled RSS in MiB (0 before the first sample).
long rss_mb();
/// Maximum RSS seen by any sample_rss() call in this process.
long rss_peak_mb();

// --- telemetry records ------------------------------------------------------

/// One line of telemetry.jsonl. All fields have safe defaults so a
/// reader tolerates records from newer/older writers.
struct TelemetryRecord {
  std::string kind = "heartbeat";  ///< "start" | "heartbeat" | "final"
  std::uint64_t seq = 0;           ///< per-writer, strictly increasing
  std::int64_t pid = 0;
  double t = 0;                    ///< unix wall-clock seconds
  std::string phase;
  std::uint64_t progress = 0;      ///< sum of all obs counters (monotone)
  std::uint64_t targets_done = 0;  ///< counter attack.targets_done
  std::uint64_t pairs_scored = 0;  ///< counter attack.pairs_scored
  std::uint64_t trees_done = 0;    ///< counter ml.trees_done
  std::uint64_t folds_done = 0;    ///< counter loo.folds_done
  std::int64_t rss_mb = 0;
  std::int64_t rss_peak_mb = 0;
  std::string pressure;            ///< budget pressure name; "" = no budget

  std::string to_json() const;  ///< one line, no trailing newline
};

/// Parses one line; any malformation is a Status (torn tail, garbage).
StatusOr<TelemetryRecord> parse_telemetry_line(std::string_view line);

/// Builds a record from the current obs registry + phase + RSS samples.
/// `budget` may be null. Does not touch span buffers (not thread-safe to
/// snapshot concurrently); metrics only.
TelemetryRecord sample_telemetry(const Budget* budget);

/// Crash-safe JSONL appender: O_APPEND fd, one write() per record.
class TelemetryWriter {
 public:
  static StatusOr<TelemetryWriter> open(const std::string& path);
  TelemetryWriter(TelemetryWriter&& other) noexcept;
  TelemetryWriter& operator=(TelemetryWriter&& other) noexcept;
  TelemetryWriter(const TelemetryWriter&) = delete;
  TelemetryWriter& operator=(const TelemetryWriter&) = delete;
  ~TelemetryWriter();

  Status append(const TelemetryRecord& rec);
  const std::string& path() const { return path_; }

 private:
  TelemetryWriter(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

/// The one telemetry.jsonl reader: remembers the byte offset of the
/// last complete line and returns only newly completed records on each
/// poll, in file order, so a fresh tail's first poll reads the whole
/// file. Malformed lines are skipped, never fatal, and a missing file is
/// zero records. A line is consumed only once its '\n' has landed, so a
/// torn in-flight line is retried (not skipped) until the writer
/// finishes it — or abandoned if the writer dies, in which case it is
/// never consumed at all.
class TelemetryTail {
 public:
  explicit TelemetryTail(std::string path) : path_(std::move(path)) {}

  /// Appends newly completed records to `out`; returns how many.
  std::size_t poll(std::vector<TelemetryRecord>& out);
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;  ///< bytes of consumed complete lines
};

// --- heartbeat thread -------------------------------------------------------

/// Background sampler. Writes a "start" record immediately, a
/// "heartbeat" record every interval, and a "final" record on stop().
/// With an empty path it still samples RSS each tick (so run-report peak
/// RSS is trustworthy even without a telemetry file) but writes nothing.
class Heartbeat {
 public:
  struct Options {
    std::string path;          ///< telemetry.jsonl; "" = sample-only mode
    double interval_s = 1.0;   ///< clamped to >= 0.01
    const Budget* budget = nullptr;  ///< must outlive the heartbeat
  };

  /// Starts the thread. Fails only if the telemetry file cannot be
  /// opened; sample-only mode cannot fail. Returned by pointer because
  /// the sampler thread holds `this`.
  static StatusOr<std::unique_ptr<Heartbeat>> start(Options opt);

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Writes the "final" record and joins the thread. Idempotent; the
  /// destructor calls it.
  void stop();
  ~Heartbeat() { stop(); }

  std::uint64_t records_written() const;

 private:
  Heartbeat() = default;
  void run_loop();
  void emit(const char* kind);

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::unique_ptr<TelemetryWriter> writer_;  ///< null in sample-only mode
  const Budget* budget_ = nullptr;
  double interval_s_ = 1.0;
  std::uint64_t seq_ = 0;
  std::uint64_t written_ = 0;
  std::thread thread_;
  bool stopped_ = true;
};

// --- Prometheus exposition --------------------------------------------------

/// The one Prometheus text renderer behind every /metrics route. Names
/// are sanitized (non-[a-zA-Z0-9_] bytes become '_') and prefixed;
/// counters emit `_total`, histograms `_bucket{le=...}`, `_sum` and
/// `_count`. A run of same-named samples shares one TYPE line, and label
/// values are escaped, so a string read from a file stays in its quotes.
struct MetricSnapshot;  // obs.hpp
std::string prometheus_text(const std::vector<MetricSnapshot>& metrics,
                            std::string_view prefix);

/// The current metrics registry plus the RSS samples, prefixed "repro_".
std::string prometheus_text();

}  // namespace repro::common::obs
