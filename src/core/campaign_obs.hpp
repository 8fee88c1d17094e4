// Campaign-level observability: the supervisor/reporting side of the
// cross-process telemetry protocol (the worker side lives in
// common/telemetry.hpp).
//
// Four concerns, all pure functions over on-disk artifacts so the
// supervisor (live, in-process state) and `tools/obs_report` (post-hoc
// or concurrent, file-only view) share one implementation:
//
//   * Shard table: the one shard record (ShardState) and its one JSON
//     row codec, shared by campaign.json and split_campaign's report.
//
//   * Status: a campaign_status.json document built from per-shard rows.
//     Two renderings — *live* (phases, progress, heartbeat ages, RSS,
//     ETA: everything an operator watches) and *final* (the
//     deterministic subset: shard verdicts, attempt counts, digests,
//     ever-stalled set, counter roll-up). The final rendering is
//     byte-identical across worker and thread counts because every
//     volatile field is omitted and every list is emitted in (layer,
//     fold) order (scripts/check_campaign_obs.sh diffs it at 1/2/8
//     workers).
//
//   * Metrics roll-up: element-wise sum of the shard metrics.json files.
//     Counters and histogram buckets are commutative sums, so the
//     roll-up inherits the registry's thread-count invariance; scalar
//     members that render as non-integers (gauges) are dropped — a
//     last-write gauge has no meaningful cross-process sum. The digest
//     is FNV-1a over the rendered roll-up JSON.
//
//   * Trace merge: per-shard Chrome traces stitched into one campaign
//     timeline, shard -> pid track (pid = index in the given order,
//     which callers fix to (layer, fold)), with process_name metadata
//     events naming each track. Numeric fields are re-emitted from
//     their raw source tokens, never re-formatted through a double, so
//     merging logical-time traces is byte-stable.
//
// Stall semantics (used by the supervisor and by scan_campaign_dir):
// a running shard is *stalled* when its telemetry progress value has
// not advanced for stall_after_s seconds. Progress is the sum of all
// obs counters, so this catches both a frozen process (no records at
// all — REPRO_FAULT=hang parks the main thread inside a commit while
// the heartbeat thread keeps beating) and a busy-looping one; a merely
// slow worker keeps bumping counters and is never flagged.
#pragma once

#include <compare>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_scan.hpp"
#include "common/obs.hpp"
#include "common/status.hpp"
#include "common/telemetry.hpp"

namespace repro::core {

/// One unit of supervised work: fold `fold` of the LOO suite at split
/// layer `layer`.
struct ShardSpec {
  int layer = 0;
  std::int64_t fold = 0;

  /// Stable identifier, also the shard's directory name: "L8_f3".
  std::string id() const {
    return "L" + std::to_string(layer) + "_f" + std::to_string(fold);
  }
  /// The inverse of id(): a layer in [1, 64] and a fold >= 0, accepted
  /// only in id()'s exact spelling ("L08_f3" and "L8_f+3" are not ids).
  static std::optional<ShardSpec> parse(const std::string& id);

  auto operator<=>(const ShardSpec&) const = default;  ///< (layer, fold)
};

enum class ShardStatus { kPending, kRunning, kOk, kQuarantined };

const char* to_string(ShardStatus s);

/// One line of a shard's failure history: what attempt N ended as.
struct ShardAttempt {
  int attempt = 0;        ///< 1-based
  std::string outcome;    ///< exit class, "timeout", or "corrupt_output"
  std::string detail;     ///< wait status / validation error text

  bool operator==(const ShardAttempt&) const = default;
};

/// One row of a campaign's shard table: the supervisor's state, the
/// campaign.json and report.json row, and the status document's row.
struct ShardState {
  ShardSpec spec;
  ShardStatus status = ShardStatus::kPending;
  int attempts = 0;  ///< attempts started so far
  bool degraded = false;  ///< worker exited kExitOkDegraded
  std::uint64_t digest = 0;  ///< validated fold-result digest when kOk
  std::vector<ShardAttempt> history;
  /// Cross-process telemetry (heartbeat_s > 0): the last record tailed
  /// from the shard's telemetry.jsonl — for a failed or quarantined
  /// shard, its phase/progress at death.
  bool has_telemetry = false;
  common::obs::TelemetryRecord last_telemetry;
  bool stalled = false;  ///< ever flagged by the stall detector

  // Live view only: filled in for the status document, never persisted.
  double heartbeat_age_s = -1;  ///< since the last record; <0 = unknown
  double progress_age_s = -1;   ///< since progress last advanced
  double advance_t = 0;         ///< absolute time progress last advanced
  bool stalled_now = false;     ///< flagged by the stall detector now
};

/// The stall detector's advance rule: between two consecutive records
/// of one shard, progress advanced when the progress sum changed or a
/// new attempt (a new pid, counters restarting at zero) began writing.
inline bool progress_advanced(const common::obs::TelemetryRecord& prev,
                              const common::obs::TelemetryRecord& next) {
  return next.progress != prev.progress || next.pid != prev.pid;
}

/// Remote-dispatch roll-up for a campaign running with --remote: the
/// client-side counters fleet health is judged by.
struct RemoteDispatchStats {
  std::uint64_t requests = 0;         ///< /shard HTTP attempts issued
  std::uint64_t retries = 0;          ///< same-endpoint backoff retries
  std::uint64_t failovers = 0;        ///< endpoint switches after failure
  std::uint64_t breaker_trips = 0;    ///< closed -> open transitions
  std::uint64_t local_fallbacks = 0;  ///< shards run locally (fleet down)
  std::uint64_t remote_ok = 0;        ///< shards completed remotely
};

/// One endpoint's health row in the status document.
struct RemoteEndpointObs {
  std::string label;  ///< "host:port"
  std::string state;  ///< "closed" | "open" | "half_open"
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
};

/// A --remote campaign's fleet health. campaign.json, the live status
/// document, split_campaign's report and obs_report all carry it.
struct RemoteFleet {
  RemoteDispatchStats stats;
  std::vector<RemoteEndpointObs> endpoints;
};

/// The fleet block's one JSON writer and its one reader. The reader
/// takes a missing, negative or fractional counter as 0.
std::string render_remote_fleet(const RemoteFleet& fleet);
RemoteFleet parse_remote_fleet(const common::JsonValue& block);

/// The shard rows' one JSON writer: the "shards" array of campaign.json
/// and of split_campaign's report, one object per row with keys id,
/// status, attempts, degraded, [digest], [stalled], [last_telemetry]
/// and history. Live-only fields are not written.
std::string render_shard_rows(const std::vector<ShardState>& shards);

/// What a campaign.json holds.
struct CampaignTable {
  std::vector<ShardState> shards;     ///< file order
  std::optional<RemoteFleet> remote;  ///< --remote campaigns only
};

/// The one campaign.json reader. A file that does not parse, or has no
/// "shards" array, is a ParseError. Rows are taken as untrusted: a row
/// whose id is not a ShardSpec id is dropped (its layer and fold come
/// from the id; "layer" and "fold" keys are ignored), an unknown status
/// reads as pending, and an attempt count outside [0, INT_MAX] reads
/// as 0.
common::StatusOr<CampaignTable> parse_campaign_table(std::string_view text);

struct CampaignObsSnapshot {
  bool finished = false;  ///< no shard pending or running
  bool complete = false;  ///< every shard ok
  int shards_total = 0;
  int shards_ok = 0;
  int shards_running = 0;
  int shards_pending = 0;
  int shards_quarantined = 0;
  std::vector<ShardState> rows;             ///< (layer, fold) order
  std::vector<std::string> stalled_shards;  ///< ever stalled, row order
  std::string rollup_json;                  ///< "" when unavailable
  std::uint64_t rollup_digest = 0;
  std::vector<common::obs::MetricSnapshot> rollup_metrics;
  double elapsed_s = -1;  ///< supervisor wall clock; <0 = unknown
  double eta_s = -1;      ///< naive remaining/done extrapolation
  double first_t = 0;     ///< earliest telemetry record time; 0 = none
  /// Fleet health (campaigns run with --remote only; local campaigns
  /// omit the whole block so their final documents stay byte-identical
  /// to pre-remote renderings).
  std::optional<RemoteFleet> remote;
};

/// Derives a snapshot's totals from its rows: the per-status shard
/// counts, `finished` and `complete`, and from the campaign's elapsed
/// wall time (< 0 = unknown) `elapsed_s` and the naive ETA,
/// elapsed × remaining / done (-1 while no shard is done or once none
/// remain). The supervisor, scan_campaign_dir and refresh_volatile all
/// call it, so the live and the file-only views agree.
void compute_totals(CampaignObsSnapshot* snap, double elapsed_s);

/// Renders the status document. `final_mode` drops every volatile field
/// (ages, RSS, progress, ETA) so the output is run-to-run deterministic.
std::string render_campaign_status(const CampaignObsSnapshot& snap,
                                   bool final_mode);

/// Element-wise sum of shard metrics files (paths in shard order).
/// Missing files fail (the caller passes only ok shards); malformed
/// content fails. Histogram edge mismatches between shards fail — they
/// mean the shards did not run the same code.
struct MetricsRollup {
  std::string json;           ///< metrics_json-shaped roll-up
  std::uint64_t digest = 0;   ///< FNV-1a over `json`
  int shards = 0;
  std::vector<common::obs::MetricSnapshot> metrics;
};
common::StatusOr<MetricsRollup> rollup_shard_metrics(
    const std::vector<std::string>& metrics_paths);

/// Stitches per-shard Chrome trace files into one timeline. `shards` is
/// (shard id, trace path) in presentation order; entry i becomes pid i
/// with a process_name metadata event. Missing files fail.
common::StatusOr<std::string> merge_shard_traces(
    const std::vector<std::pair<std::string, std::string>>& shards);

/// Builds a snapshot purely from a campaign directory: campaign.json
/// for the shard table, shards/<id>/telemetry.jsonl for live telemetry
/// (it replaces the table's possibly stale last_telemetry),
/// shards/<id>/metrics.json for the roll-up (only when every shard is
/// ok). This is obs_report's path — it needs no supervisor cooperation
/// beyond the files the campaign already writes, so it works on a live
/// campaign and on a post-mortem directory alike.
common::StatusOr<CampaignObsSnapshot> scan_campaign_dir(
    const std::string& campaign_dir, double stall_after_s);

/// Prometheus text exposition of a snapshot, all under "campaign_":
/// campaign_shards_* gauges, per-shard progress and peak RSS, the
/// campaign_remote_* fleet counters, and the roll-up metrics.
std::string campaign_prometheus_text(const CampaignObsSnapshot& snap);

/// Recomputes the age-dependent fields of a cached snapshot against
/// `now_s` (wall clock, seconds): heartbeat/progress ages, the stalled
/// flags and list, elapsed and ETA. The snapshot stores the *absolute*
/// times they derive from (last_telemetry.t, advance_t, first_t), so a
/// snapshot served from cache stays as fresh as a rescan for everything
/// except new file content.
void refresh_volatile(CampaignObsSnapshot* snap, double now_s,
                      double stall_after_s);

/// Change-detecting cache around scan_campaign_dir, for serve loops
/// that are scraped every second: a scan re-reads campaign.json plus
/// every shard's whole telemetry.jsonl, so per-request scanning is
/// quadratic over a campaign's lifetime. poll() fingerprints the
/// watched files (size, mtime, inode — campaign.json and each shard's
/// telemetry.jsonl / metrics.json) and rescans only when one changed,
/// otherwise serving the cached snapshot with refresh_volatile applied.
/// A write that races a scan is caught on the poll after it finishes
/// touching the file. Thread-safe: handlers on multiple server threads
/// may poll concurrently.
class CampaignWatcher {
 public:
  CampaignWatcher(std::string campaign_dir, double stall_after_s)
      : dir_(std::move(campaign_dir)), stall_after_s_(stall_after_s) {}

  /// Current snapshot (cached or rescanned; see class comment).
  common::StatusOr<CampaignObsSnapshot> poll();

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t rescans = 0;  ///< polls that re-read the directory
    std::uint64_t reused = 0;   ///< polls served from the cache
  };
  Stats stats() const;

 private:
  struct Fingerprint {
    std::string path;
    bool exists = false;
    std::int64_t size = -1;
    std::int64_t mtime_ns = -1;
    std::uint64_t ino = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  static Fingerprint fingerprint(std::string path);

  const std::string dir_;
  const double stall_after_s_;
  mutable std::mutex mutex_;
  bool have_ = false;
  CampaignObsSnapshot cached_;
  std::vector<Fingerprint> watched_;
  Stats stats_;
};

}  // namespace repro::core
