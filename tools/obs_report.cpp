// obs_report - live campaign observability console and scrape endpoint.
//
// Reads a campaign directory (running or post-mortem) and renders what
// the supervisor and its workers have written so far: the shard table
// from campaign.json, each shard's latest telemetry record from
// shards/<id>/telemetry.jsonl, and — once every shard is ok — the
// cross-shard metrics roll-up. It needs no cooperation from the
// supervisor beyond those files, so it can watch a campaign owned by
// another process, or autopsy a directory whose campaign died days ago.
//
// Example (any usage error prints the full flag list):
//   obs_report --campaign-dir DIR --serve 0
//
//   --once           print the summary and exit 0 (default behaviour
//                    when --serve is absent; the flag exists so scripts
//                    can say what they mean)
//   --json           print the live status JSON instead of the table
//   --serve PORT     after printing, serve HTTP on 127.0.0.1:PORT until
//                    interrupted. PORT 0 picks a free port; the chosen
//                    port is printed as "serving on 127.0.0.1:<port>".
//                      GET /status   live campaign status JSON
//                      GET /metrics  Prometheus text exposition
//                      GET /         human-readable summary
//                    Requests are served through a change-detecting
//                    snapshot cache (core::CampaignWatcher): the
//                    campaign directory is re-scanned only when one of
//                    its files actually changed, so a dashboard polling
//                    /metrics every second sees live progress without
//                    re-reading every telemetry log per request.
//                    /metrics exports obs_report_scans_total /
//                    obs_report_reused_total so the reuse is observable.
//   --stall-after-s  threshold for flagging a running shard whose
//                    telemetry progress has not advanced (default 10).
//   --read-deadline-s  per-connection request-read deadline (default 5):
//                    a connected-but-silent client costs one deadline,
//                    never a wedged serve loop.
//
// The listener binds the loopback interface only — this is a scrape
// endpoint for a local Prometheus agent or a curl in a terminal, not a
// network service. Request reads are deadline-bounded and reassembled
// by common/http, so a GET split across TCP segments parses the same
// as one delivered whole.
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 interrupted.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/cancel.hpp"
#include "common/flags.hpp"
#include "common/http.hpp"
#include "common/status.hpp"
#include "core/campaign_obs.hpp"

namespace {

using namespace repro;

struct Args {
  std::string campaign_dir;
  bool once = false;
  bool json = false;
  int serve_port = -1;  ///< <0 = no server
  double stall_after_s = 10;
  double read_deadline_s = 5.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  common::FlagTable flags(argv[0]);
  flags.text("--campaign-dir", "DIR", &a.campaign_dir)
      .flag("--once", &a.once)
      .flag("--json", &a.json)
      .integer("--serve", "PORT", &a.serve_port, 0, 65535)
      .number("--stall-after-s", "S", &a.stall_after_s, 0, 1e7)
      .number("--read-deadline-s", "S", &a.read_deadline_s, 0.01, 3600);
  flags.parse_or_exit(argc, argv);
  if (a.campaign_dir.empty()) flags.fail("--campaign-dir is required");
  return a;
}

std::string human_summary(const core::CampaignObsSnapshot& snap) {
  std::string out;
  char line[512];
  const char* state = snap.complete    ? "complete"
                      : snap.finished  ? "incomplete"
                                       : "running";
  std::snprintf(line, sizeof line,
                "campaign: %s — %d shard(s): %d ok, %d running, %d pending, "
                "%d quarantined\n",
                state, snap.shards_total, snap.shards_ok, snap.shards_running,
                snap.shards_pending, snap.shards_quarantined);
  out += line;
  if (snap.elapsed_s >= 0) {
    std::snprintf(line, sizeof line, "elapsed: %.1fs", snap.elapsed_s);
    out += line;
    if (snap.eta_s >= 0) {
      std::snprintf(line, sizeof line, "  eta: ~%.1fs", snap.eta_s);
      out += line;
    }
    out += "\n";
  }
  std::snprintf(line, sizeof line, "%-10s %-12s %-12s %10s %8s %8s %6s  %s\n",
                "shard", "status", "phase", "progress", "folds", "rss_mb",
                "hb_age", "flags");
  out += line;
  for (const core::ShardState& row : snap.rows) {
    std::string phase = "-", progress = "-", folds = "-", rss = "-",
                hb_age = "-";
    if (row.has_telemetry) {
      phase = row.last_telemetry.phase;
      progress = std::to_string(row.last_telemetry.progress);
      folds = std::to_string(row.last_telemetry.folds_done);
      rss = std::to_string(row.last_telemetry.rss_peak_mb);
      if (row.heartbeat_age_s >= 0) {
        char b[32];
        std::snprintf(b, sizeof b, "%.1fs", row.heartbeat_age_s);
        hb_age = b;
      }
    }
    std::string flags;
    if (row.stalled_now) flags += "STALLED ";
    if (row.degraded) flags += "degraded ";
    std::snprintf(line, sizeof line, "%-10s %-12s %-12s %10s %8s %8s %6s  %s\n",
                  row.spec.id().c_str(), core::to_string(row.status),
                  phase.c_str(), progress.c_str(), folds.c_str(), rss.c_str(),
                  hb_age.c_str(), flags.c_str());
    out += line;
  }
  if (!snap.stalled_shards.empty()) {
    out += "stalled shards:";
    for (const std::string& id : snap.stalled_shards) out += " " + id;
    out += "\n";
  }
  if (!snap.rollup_json.empty()) {
    out += "metrics roll-up digest: " + common::hex64(snap.rollup_digest) +
           "\n";
  }
  return out;
}

common::http::Response text_response(int status, std::string body,
                                     const char* content_type =
                                         "text/plain; charset=utf-8") {
  common::http::Response resp;
  resp.status = status;
  resp.content_type = content_type;
  resp.body = std::move(body);
  return resp;
}

/// Routes one request against the watcher-cached snapshot.
common::http::Response handle_request(const common::http::Request& req,
                                      core::CampaignWatcher& watcher) {
  if (req.method != "GET") {
    return text_response(405, "only GET is supported\n");
  }
  const std::string path = req.path.substr(0, req.path.find('?'));
  auto snap = watcher.poll();
  if (!snap.ok()) {
    return text_response(500, snap.status().to_string() + "\n");
  }
  if (path == "/status") {
    return text_response(
        200, core::render_campaign_status(*snap, /*final_mode=*/false) + "\n",
        "application/json");
  }
  if (path == "/metrics") {
    std::string out = core::campaign_prometheus_text(*snap);
    // Scan-reuse counters: a polling dashboard can verify the cache is
    // doing its job (reused should dwarf rescans on a quiet campaign).
    const core::CampaignWatcher::Stats ws = watcher.stats();
    out += common::obs::prometheus_text(
        {common::obs::MetricSnapshot::counter("scans", ws.rescans),
         common::obs::MetricSnapshot::counter("reused", ws.reused)},
        "obs_report_");
    return text_response(200, std::move(out), "text/plain; version=0.0.4");
  }
  if (path == "/" || path.empty()) {
    return text_response(200, human_summary(*snap));
  }
  return text_response(404, "try /status, /metrics, or /\n");
}

int serve(const Args& args, common::CancelToken& cancel) {
  core::CampaignWatcher watcher(args.campaign_dir, args.stall_after_s);
  common::http::Server::Options opt;
  opt.port = args.serve_port;
  opt.num_threads = 2;  // a scrape endpoint; two threads cover overlap
  opt.limits.deadline_s = args.read_deadline_s;
  opt.cancel = &cancel;
  auto server = common::http::Server::start(
      opt, [&watcher](const common::http::Request& req) {
        return handle_request(req, watcher);
      });
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().to_string().c_str());
    return 1;
  }
  // Printed to stdout (and flushed) so a harness spawning us with port
  // 0 can parse the port it actually got.
  std::printf("serving on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);

  while (!cancel.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  (*server)->stop();
  return 3;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  common::install_stop_signals();
  std::signal(SIGPIPE, SIG_IGN);  // a vanished scrape client is not fatal

  auto snap = core::scan_campaign_dir(args.campaign_dir, args.stall_after_s);
  if (!snap.ok()) {
    std::fprintf(stderr, "error: %s\n", snap.status().to_string().c_str());
    return 1;
  }
  if (args.json) {
    std::fputs(
        (core::render_campaign_status(*snap, /*final_mode=*/false) + "\n")
            .c_str(),
        stdout);
  } else {
    std::fputs(human_summary(*snap).c_str(), stdout);
  }
  if (args.serve_port < 0) return 0;
  if (args.once) return 0;
  return serve(args, common::global_cancel_token());
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
