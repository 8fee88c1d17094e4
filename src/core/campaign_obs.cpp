#include "core/campaign_obs.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <map>

#include "common/binio.hpp"
#include "common/clock.hpp"
#include "common/flags.hpp"
#include "common/json_scan.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"

namespace repro::core {

namespace {

using common::hex64;
using common::JsonObject;
using common::JsonValue;

/// True when a raw JSON number token is a plain unsigned integer — the
/// form the registry renders counters and histogram counts in. Gauges go
/// through json_num, which emits a '.' or exponent for every non-integral
/// value, and a sign for a negative one; the rare non-negative integral
/// gauge that slips through is a deterministic config echo, so summing it
/// keeps the roll-up invariant (just meaningless), and the known gauges
/// all render fractionally in practice.
bool is_integer_token(const std::string& raw) {
  if (raw.empty()) return false;
  for (const char c : raw) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::string render_rollup_json(
    const std::vector<common::obs::MetricSnapshot>& metrics) {
  JsonObject obj;
  for (const auto& m : metrics) {
    switch (m.kind) {
      case common::obs::MetricSnapshot::Kind::kCounter:
        obj.field(m.name, static_cast<unsigned long>(m.count));
        break;
      case common::obs::MetricSnapshot::Kind::kHistogram:
        obj.field_raw(m.name,
                      JsonObject()
                          .field_raw("edges", common::json_num_array(m.edges))
                          .field_raw("counts",
                                     common::json_num_array(m.buckets))
                          .field("total", static_cast<unsigned long>(m.count))
                          .field("sum_micros",
                                 static_cast<long>(m.sum_micros))
                          .str());
        break;
      case common::obs::MetricSnapshot::Kind::kGauge:
        break;  // dropped: no meaningful cross-process sum
    }
  }
  return obj.str();
}

/// A status-document row: a different document from the shard table's
/// rows (render_shard_rows), with its own live and final renderings.
std::string render_row(const ShardState& row, bool final_mode) {
  JsonObject obj;
  obj.field("id", row.spec.id())
      .field("status", to_string(row.status))
      .field("attempts", row.attempts)
      .field("degraded", row.degraded);
  if (row.status == ShardStatus::kOk) obj.field("digest", hex64(row.digest));
  if (final_mode) return obj.str();
  obj.field("stalled", row.stalled_now);
  if (row.has_telemetry) {
    const common::obs::TelemetryRecord& t = row.last_telemetry;
    obj.field("phase", t.phase)
        .field("progress", static_cast<unsigned long>(t.progress))
        .field("targets_done", static_cast<unsigned long>(t.targets_done))
        .field("pairs_scored", static_cast<unsigned long>(t.pairs_scored))
        .field("trees_done", static_cast<unsigned long>(t.trees_done))
        .field("folds_done", static_cast<unsigned long>(t.folds_done))
        .field("rss_mb", static_cast<long>(t.rss_mb))
        .field("rss_peak_mb", static_cast<long>(t.rss_peak_mb));
    if (!t.pressure.empty()) obj.field("pressure", t.pressure);
    if (row.heartbeat_age_s >= 0) {
      obj.field("heartbeat_age_s", row.heartbeat_age_s);
    }
    if (row.progress_age_s >= 0) {
      obj.field("progress_age_s", row.progress_age_s);
    }
  }
  return obj.str();
}

/// A count read from an untrusted file: outside [0, INT_MAX] reads as 0.
int get_count(const JsonValue& obj, std::string_view key) {
  const std::int64_t n = obj.get_i64(key, 0);
  return n >= 0 && n <= INT_MAX ? static_cast<int>(n) : 0;
}

ShardStatus status_from_string(const std::string& s) {
  if (s == "running") return ShardStatus::kRunning;
  if (s == "ok") return ShardStatus::kOk;
  if (s == "quarantined") return ShardStatus::kQuarantined;
  return ShardStatus::kPending;
}

}  // namespace

std::optional<ShardSpec> ShardSpec::parse(const std::string& id) {
  const std::size_t sep = id.find("_f");
  if (id.rfind('L', 0) != 0 || sep == std::string::npos) return std::nullopt;
  const auto layer = common::parse_int(id.substr(1, sep - 1), 1, 64);
  const auto fold = common::parse_int(id.substr(sep + 2), 0, LLONG_MAX);
  if (!layer || !fold) return std::nullopt;
  const ShardSpec spec{static_cast<int>(*layer), *fold};
  return spec.id() == id ? std::optional(spec) : std::nullopt;
}

const char* to_string(ShardStatus s) {
  switch (s) {
    case ShardStatus::kPending: return "pending";
    case ShardStatus::kRunning: return "running";
    case ShardStatus::kOk: return "ok";
    case ShardStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string render_shard_rows(const std::vector<ShardState>& shards) {
  std::vector<std::string> rows;
  rows.reserve(shards.size());
  for (const ShardState& st : shards) {
    std::vector<std::string> hist;
    hist.reserve(st.history.size());
    for (const ShardAttempt& a : st.history) {
      hist.push_back(JsonObject()
                         .field("attempt", a.attempt)
                         .field("outcome", a.outcome)
                         .field("detail", a.detail)
                         .str());
    }
    JsonObject row;
    row.field("id", st.spec.id())
        .field("status", to_string(st.status))
        .field("attempts", st.attempts)
        .field("degraded", st.degraded);
    if (st.status == ShardStatus::kOk) row.field("digest", hex64(st.digest));
    if (st.stalled) row.field("stalled", true);
    if (st.has_telemetry) {
      // The shard's phase/progress as last seen — for a quarantined
      // shard, its state at death.
      const common::obs::TelemetryRecord& t = st.last_telemetry;
      row.field_raw("last_telemetry",
                    JsonObject()
                        .field("phase", t.phase)
                        .field("progress", t.progress)
                        .field("targets_done", t.targets_done)
                        .field("pairs_scored", t.pairs_scored)
                        .field("folds_done", t.folds_done)
                        .field("rss_peak_mb", t.rss_peak_mb)
                        .str());
    }
    row.field_raw("history", common::json_array(hist));
    rows.push_back(row.str());
  }
  return common::json_array(rows);
}

common::StatusOr<CampaignTable> parse_campaign_table(std::string_view text) {
  auto doc = common::parse_json(text);
  if (!doc.ok() || !doc->is_object()) {
    return common::Status::ParseError("campaign.json is unparseable");
  }
  const JsonValue* arr = doc->find("shards");
  if (arr == nullptr || !arr->is_array()) {
    return common::Status::ParseError("campaign.json has no shards array");
  }
  CampaignTable table;
  for (const JsonValue& row : arr->items) {
    const std::optional<ShardSpec> spec =
        ShardSpec::parse(row.get_string("id"));
    if (!spec) continue;
    ShardState st;
    st.spec = *spec;
    st.status = status_from_string(row.get_string("status"));
    st.attempts = get_count(row, "attempts");
    st.degraded = row.get_bool("degraded", false);
    st.digest = row.get_u64("digest", 0);
    st.stalled = row.get_bool("stalled", false);
    if (const JsonValue* lt = row.find("last_telemetry");
        lt != nullptr && lt->is_object()) {
      st.has_telemetry = true;
      common::obs::TelemetryRecord& t = st.last_telemetry;
      t.phase = lt->get_string("phase");
      t.progress = lt->get_u64("progress", 0);
      t.targets_done = lt->get_u64("targets_done", 0);
      t.pairs_scored = lt->get_u64("pairs_scored", 0);
      t.folds_done = lt->get_u64("folds_done", 0);
      t.rss_peak_mb = lt->get_i64("rss_peak_mb", 0);
    }
    if (const JsonValue* hist = row.find("history");
        hist != nullptr && hist->is_array()) {
      for (const JsonValue& h : hist->items) {
        st.history.push_back(ShardAttempt{get_count(h, "attempt"),
                                          h.get_string("outcome"),
                                          h.get_string("detail")});
      }
    }
    table.shards.push_back(std::move(st));
  }
  // Remote campaigns persist their fleet counters beside the table.
  if (const JsonValue* rem = doc->find("remote");
      rem != nullptr && rem->is_object()) {
    table.remote = parse_remote_fleet(*rem);
  }
  return table;
}

void compute_totals(CampaignObsSnapshot* snap, double elapsed_s) {
  snap->shards_total = static_cast<int>(snap->rows.size());
  snap->shards_ok = snap->shards_running = snap->shards_pending =
      snap->shards_quarantined = 0;
  for (const ShardState& row : snap->rows) {
    switch (row.status) {
      case ShardStatus::kOk: ++snap->shards_ok; break;
      case ShardStatus::kRunning: ++snap->shards_running; break;
      case ShardStatus::kPending: ++snap->shards_pending; break;
      case ShardStatus::kQuarantined: ++snap->shards_quarantined; break;
    }
  }
  snap->finished = snap->shards_running == 0 && snap->shards_pending == 0;
  snap->complete = snap->shards_ok == snap->shards_total &&
                   snap->shards_total > 0;
  snap->elapsed_s = elapsed_s;
  const int done = snap->shards_ok + snap->shards_quarantined;
  const int remaining = snap->shards_total - done;
  snap->eta_s = elapsed_s >= 0 && done > 0 && remaining > 0
                    ? elapsed_s * remaining / done
                    : -1;
}

std::string render_campaign_status(const CampaignObsSnapshot& snap,
                                   bool final_mode) {
  std::vector<std::string> rows;
  rows.reserve(snap.rows.size());
  for (const ShardState& row : snap.rows) {
    rows.push_back(render_row(row, final_mode));
  }
  std::vector<std::string> stalled;
  stalled.reserve(snap.stalled_shards.size());
  for (const std::string& id : snap.stalled_shards) {
    stalled.push_back(common::json_str(id));
  }
  JsonObject obj;
  obj.field("format_version", 1)
      .field("state", snap.complete  ? "complete"
                      : snap.finished ? "incomplete"
                                      : "running")
      .field("shards_total", snap.shards_total)
      .field("shards_ok", snap.shards_ok)
      .field("shards_quarantined", snap.shards_quarantined);
  if (!final_mode) {
    obj.field("shards_running", snap.shards_running)
        .field("shards_pending", snap.shards_pending);
    if (snap.elapsed_s >= 0) obj.field("elapsed_s", snap.elapsed_s);
    if (snap.eta_s >= 0) obj.field("eta_s", snap.eta_s);
  }
  obj.field_raw("stalled_shards", common::json_array(stalled));
  obj.field_raw("shards", common::json_array(rows));
  // Remote-dispatch fleet health (campaigns run with --remote only).
  // Live-mode only: the counters depend on wall-clock races (retries,
  // failovers), so the final document keeps its deterministic contract.
  if (!final_mode && snap.remote) {
    obj.field_raw("remote", render_remote_fleet(*snap.remote));
  }
  if (!snap.rollup_json.empty()) {
    obj.field_raw("rollup", snap.rollup_json)
        .field("rollup_digest", hex64(snap.rollup_digest));
  }
  return obj.str();
}

std::string render_remote_fleet(const RemoteFleet& fleet) {
  std::vector<std::string> eps;
  eps.reserve(fleet.endpoints.size());
  for (const RemoteEndpointObs& ep : fleet.endpoints) {
    eps.push_back(
        JsonObject()
            .field("endpoint", ep.label)
            .field("state", ep.state)
            .field("requests", static_cast<unsigned long>(ep.requests))
            .field("failures", static_cast<unsigned long>(ep.failures))
            .str());
  }
  const RemoteDispatchStats& rs = fleet.stats;
  return JsonObject()
      .field("requests", static_cast<unsigned long>(rs.requests))
      .field("retries", static_cast<unsigned long>(rs.retries))
      .field("failovers", static_cast<unsigned long>(rs.failovers))
      .field("breaker_trips", static_cast<unsigned long>(rs.breaker_trips))
      .field("local_fallbacks",
             static_cast<unsigned long>(rs.local_fallbacks))
      .field("remote_ok", static_cast<unsigned long>(rs.remote_ok))
      .field_raw("endpoints", common::json_array(eps))
      .str();
}

RemoteFleet parse_remote_fleet(const JsonValue& block) {
  RemoteFleet fleet;
  RemoteDispatchStats& rs = fleet.stats;
  rs.requests = block.get_u64("requests", 0);
  rs.retries = block.get_u64("retries", 0);
  rs.failovers = block.get_u64("failovers", 0);
  rs.breaker_trips = block.get_u64("breaker_trips", 0);
  rs.local_fallbacks = block.get_u64("local_fallbacks", 0);
  rs.remote_ok = block.get_u64("remote_ok", 0);
  if (const JsonValue* eps = block.find("endpoints");
      eps != nullptr && eps->is_array()) {
    for (const JsonValue& ep : eps->items) {
      fleet.endpoints.push_back(RemoteEndpointObs{
          ep.get_string("endpoint"), ep.get_string("state", "closed"),
          ep.get_u64("requests", 0), ep.get_u64("failures", 0)});
    }
  }
  return fleet;
}

common::StatusOr<MetricsRollup> rollup_shard_metrics(
    const std::vector<std::string>& metrics_paths) {
  std::map<std::string, std::uint64_t> counters;
  struct Hist {
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;
    std::int64_t sum_micros = 0;
  };
  std::map<std::string, Hist> hists;

  for (const std::string& path : metrics_paths) {
    auto text = common::read_file(path);
    if (!text.ok()) return text.status();
    auto doc = common::parse_json(*text);
    if (!doc.ok()) {
      return common::Status::ParseError(path + ": " +
                                        doc.status().to_string());
    }
    if (!doc->is_object()) {
      return common::Status::ParseError(path + ": metrics file is not an "
                                        "object");
    }
    for (const auto& [name, value] : doc->members) {
      if (value.is_object() && value.find("counts") != nullptr) {
        std::vector<double> edges;
        std::vector<std::uint64_t> buckets;
        if (const JsonValue* e = value.find("edges"); e && e->is_array()) {
          for (const JsonValue& x : e->items) edges.push_back(x.as_double());
        }
        if (const JsonValue* c = value.find("counts"); c && c->is_array()) {
          for (const JsonValue& x : c->items) buckets.push_back(x.as_u64());
        }
        // sum_micros is absent from metrics files written before the
        // _sum exposition fix; treat missing as 0 so old shards still
        // roll up.
        std::int64_t sum_micros = 0;
        if (const JsonValue* s = value.find("sum_micros");
            s && s->is_number()) {
          sum_micros = s->as_i64();
        }
        auto [it, inserted] = hists.try_emplace(name);
        if (inserted) {
          it->second.edges = std::move(edges);
          it->second.buckets = std::move(buckets);
          it->second.sum_micros = sum_micros;
        } else {
          if (it->second.edges != edges ||
              it->second.buckets.size() != buckets.size()) {
            return common::Status::FailedPrecondition(
                path + ": histogram " + name +
                " has different bucket edges than earlier shards (shards "
                "did not run the same code)");
          }
          for (std::size_t i = 0; i < buckets.size(); ++i) {
            it->second.buckets[i] += buckets[i];
          }
          it->second.sum_micros += sum_micros;
        }
      } else if (value.is_number() && is_integer_token(value.raw_number)) {
        counters[name] += value.as_u64();
      }
      // Non-integer scalars are gauges: dropped (see header).
    }
  }

  MetricsRollup out;
  out.shards = static_cast<int>(metrics_paths.size());
  for (const auto& [name, v] : counters) {
    common::obs::MetricSnapshot m;
    m.kind = common::obs::MetricSnapshot::Kind::kCounter;
    m.name = name;
    m.count = v;
    out.metrics.push_back(std::move(m));
  }
  for (const auto& [name, h] : hists) {
    common::obs::MetricSnapshot m;
    m.kind = common::obs::MetricSnapshot::Kind::kHistogram;
    m.name = name;
    m.edges = h.edges;
    m.buckets = h.buckets;
    for (std::uint64_t b : h.buckets) m.count += b;
    m.sum_micros = h.sum_micros;
    out.metrics.push_back(std::move(m));
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  out.json = render_rollup_json(out.metrics);
  out.digest = common::fnv1a64(out.json);
  return out;
}

common::StatusOr<std::string> merge_shard_traces(
    const std::vector<std::pair<std::string, std::string>>& shards) {
  std::vector<std::string> events;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& [id, path] = shards[i];
    const long pid = static_cast<long>(i);
    auto text = common::read_file(path);
    if (!text.ok()) return text.status();
    auto doc = common::parse_json(*text);
    if (!doc.ok()) {
      return common::Status::ParseError(path + ": " +
                                        doc.status().to_string());
    }
    const JsonValue* trace = doc->find("traceEvents");
    if (trace == nullptr || !trace->is_array()) {
      return common::Status::ParseError(path +
                                        ": no traceEvents array (not a "
                                        "Chrome trace file)");
    }
    // Name the track first, so viewers label the pid row by shard id.
    events.push_back(
        JsonObject()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", pid)
            .field_raw("args", JsonObject().field("name", id).str())
            .str());
    for (const JsonValue& e : trace->items) {
      if (!e.is_object()) continue;
      JsonObject obj;
      obj.field("name", e.get_string("name"))
          .field("cat", e.get_string("cat", "repro"))
          .field("ph", e.get_string("ph", "X"))
          .field("pid", pid);
      // Numeric fields are re-emitted from the raw source tokens: a
      // double round-trip could reformat them, and logical-time merges
      // are promised byte-stable.
      for (const char* key : {"tid", "ts", "dur"}) {
        if (const JsonValue* v = e.find(key);
            v != nullptr && v->is_number()) {
          obj.field_raw(key, v->raw_number);
        }
      }
      if (const JsonValue* args = e.find("args");
          args != nullptr && args->is_object()) {
        if (const JsonValue* v = args->find("v");
            v != nullptr && v->is_number()) {
          obj.field_raw("args", "{\"v\":" + v->raw_number + "}");
        }
      }
      events.push_back(obj.str());
    }
  }
  return JsonObject()
      .field("displayTimeUnit", "ms")
      .field_raw("traceEvents", common::json_array(events))
      .str();
}

common::StatusOr<CampaignObsSnapshot> scan_campaign_dir(
    const std::string& campaign_dir, double stall_after_s) {
  auto text = common::read_file(campaign_dir + "/campaign.json");
  if (!text.ok()) {
    return common::Status::NotFound(campaign_dir +
                                    ": no campaign.json (not a campaign "
                                    "directory, or none has run yet)");
  }
  auto table = parse_campaign_table(*text);
  if (!table.ok()) {
    return common::Status::ParseError(campaign_dir + "/" +
                                      table.status().message());
  }

  CampaignObsSnapshot snap;
  snap.rows = std::move(table->shards);
  snap.remote = std::move(table->remote);
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const ShardState& a, const ShardState& b) {
              return a.spec < b.spec;
            });
  for (ShardState& row : snap.rows) {
    // Live telemetry beats the (possibly stale) persisted snapshot.
    common::obs::TelemetryTail tail(campaign_dir + "/shards/" +
                                    row.spec.id() + "/telemetry.jsonl");
    std::vector<common::obs::TelemetryRecord> records;
    row.has_telemetry = tail.poll(records) > 0;
    row.last_telemetry = row.has_telemetry ? records.back()
                                           : common::obs::TelemetryRecord();
    if (!row.has_telemetry) continue;
    row.advance_t = records.front().t;
    for (std::size_t i = 1; i < records.size(); ++i) {
      if (progress_advanced(records[i - 1], records[i])) {
        row.advance_t = records[i].t;
      }
    }
    if (snap.first_t == 0 || records.front().t < snap.first_t) {
      snap.first_t = records.front().t;
    }
  }
  // Ages, stall flags, the stalled list and the totals.
  refresh_volatile(&snap, common::wall_seconds(), stall_after_s);

  if (snap.complete) {
    std::vector<std::string> paths;
    paths.reserve(snap.rows.size());
    for (const ShardState& row : snap.rows) {
      paths.push_back(campaign_dir + "/shards/" + row.spec.id() +
                      "/metrics.json");
    }
    auto rollup = rollup_shard_metrics(paths);
    if (rollup.ok()) {  // absent metrics files just mean telemetry was off
      snap.rollup_json = rollup->json;
      snap.rollup_digest = rollup->digest;
      snap.rollup_metrics = std::move(rollup->metrics);
    }
  }
  return snap;
}

std::string campaign_prometheus_text(const CampaignObsSnapshot& snap) {
  using M = common::obs::MetricSnapshot;
  std::vector<M> metrics = {
      M::gauge("shards_total", snap.shards_total),
      M::gauge("shards_ok", snap.shards_ok),
      M::gauge("shards_running", snap.shards_running),
      M::gauge("shards_pending", snap.shards_pending),
      M::gauge("shards_quarantined", snap.shards_quarantined),
      M::gauge("shards_stalled",
               static_cast<double>(snap.stalled_shards.size()))};
  for (const ShardState& row : snap.rows) {
    if (!row.has_telemetry) continue;
    metrics.push_back(
        M::gauge("shard_progress",
                 static_cast<double>(row.last_telemetry.progress),
                 {{"shard", row.spec.id()}}));
  }
  for (const ShardState& row : snap.rows) {
    if (!row.has_telemetry) continue;
    metrics.push_back(
        M::gauge("shard_rss_peak_mb",
                 static_cast<double>(row.last_telemetry.rss_peak_mb),
                 {{"shard", row.spec.id()}}));
  }
  if (snap.remote) {
    const RemoteDispatchStats& rs = snap.remote->stats;
    metrics.insert(metrics.end(),
                   {M::counter("remote_requests", rs.requests),
                    M::counter("remote_retries", rs.retries),
                    M::counter("remote_failovers", rs.failovers),
                    M::counter("remote_breaker_trips", rs.breaker_trips),
                    M::counter("remote_local_fallbacks", rs.local_fallbacks),
                    M::counter("remote_ok", rs.remote_ok)});
    for (const RemoteEndpointObs& ep : snap.remote->endpoints) {
      metrics.push_back(M::counter("remote_endpoint_requests", ep.requests,
                                   {{"endpoint", ep.label},
                                    {"state", ep.state}}));
    }
    for (const RemoteEndpointObs& ep : snap.remote->endpoints) {
      metrics.push_back(M::counter("remote_endpoint_failures", ep.failures,
                                   {{"endpoint", ep.label}}));
    }
  }
  metrics.insert(metrics.end(), snap.rollup_metrics.begin(),
                 snap.rollup_metrics.end());
  return common::obs::prometheus_text(metrics, "campaign_");
}

void refresh_volatile(CampaignObsSnapshot* snap, double now_s,
                      double stall_after_s) {
  snap->stalled_shards.clear();
  for (ShardState& row : snap->rows) {
    if (row.has_telemetry) {
      row.heartbeat_age_s = std::max(0.0, now_s - row.last_telemetry.t);
      row.progress_age_s = std::max(0.0, now_s - row.advance_t);
    }
    row.stalled_now = row.status == ShardStatus::kRunning &&
                      stall_after_s > 0 && row.has_telemetry &&
                      row.progress_age_s > stall_after_s;
    if (row.stalled_now || row.stalled) {
      snap->stalled_shards.push_back(row.spec.id());
    }
  }
  compute_totals(snap, snap->first_t > 0
                          ? std::max(0.0, now_s - snap->first_t)
                          : -1);
}

CampaignWatcher::Fingerprint CampaignWatcher::fingerprint(
    std::string path) {
  Fingerprint fp;
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    fp.exists = true;
    fp.size = static_cast<std::int64_t>(st.st_size);
    fp.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                      1000000000LL +
                  st.st_mtim.tv_nsec;
    fp.ino = static_cast<std::uint64_t>(st.st_ino);
  }
  fp.path = std::move(path);
  return fp;
}

common::StatusOr<CampaignObsSnapshot> CampaignWatcher::poll() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.polls;
  if (have_ && !watched_.empty()) {
    bool dirty = false;
    for (const Fingerprint& fp : watched_) {
      if (fingerprint(fp.path) != fp) {
        dirty = true;
        break;
      }
    }
    if (!dirty) {
      ++stats_.reused;
      CampaignObsSnapshot out = cached_;
      refresh_volatile(&out, common::wall_seconds(), stall_after_s_);
      return out;
    }
  }

  auto snap = scan_campaign_dir(dir_, stall_after_s_);
  if (!snap.ok()) {
    have_ = false;
    watched_.clear();
    return snap.status();
  }
  ++stats_.rescans;
  cached_ = std::move(*snap);
  have_ = true;
  // Fingerprints are taken after the scan: a write racing the scan may
  // or may not be reflected in the cache, but its next touch of the
  // file changes the fingerprint and forces a rescan (telemetry files
  // are appended every heartbeat, so staleness self-heals in one
  // interval).
  watched_.clear();
  watched_.push_back(fingerprint(dir_ + "/campaign.json"));
  for (const ShardState& row : cached_.rows) {
    const std::string shard_dir = dir_ + "/shards/" + row.spec.id();
    watched_.push_back(fingerprint(shard_dir + "/telemetry.jsonl"));
    watched_.push_back(fingerprint(shard_dir + "/metrics.json"));
  }
  return cached_;
}

CampaignWatcher::Stats CampaignWatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace repro::core
