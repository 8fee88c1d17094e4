#!/bin/bash
# Cross-process observability end-to-end check, on top of a faulty
# campaign:
#
#   1. builds split_attack + split_campaign + obs_report,
#   2. for 1, 2 and 8 workers, runs a fresh 5-shard demo campaign with
#      two planted faults: L6_f1 hangs on its first attempt (heartbeats
#      keep arriving, progress freezes — the stall detector must flag
#      and SIGKILL it long before the 120s hard timeout) and L6_f2
#      crashes on its first attempt; both retries succeed,
#   3. asserts the live campaign_status.json was observable mid-run
#      (state "running"), the stall fired (stalled_shards names L6_f1,
#      the report records outcome "stalled"), the campaign still
#      completed, and report.json's shard rows equal campaign.json's,
#   4. asserts the *final* status document, the cross-shard metrics
#      roll-up, and the merged logical-time Chrome trace are
#      byte-identical across the three worker counts — observability
#      must not depend on scheduling,
#   5. validates the merged trace against the Chrome trace_event schema
#      and the status document shape with python3,
#   6. runs obs_report --once over the finished campaign (exit 0) and
#      exercises its HTTP listener: GET /status must return the live
#      status JSON, GET /metrics the Prometheus text exposition with
#      the watcher's obs_report_{scans,reused}_total counters.
#
# scripts/ci.sh runs this under a hard `timeout`: a missed stall kill
# (the hang would otherwise sit until the 120s timeout, three times)
# turns into a loud failure, not a slow pass.
#
# Usage: scripts/check_campaign_obs.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCALE=${REPRO_SCALE:-0.12}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target split_attack split_campaign obs_report >/dev/null

BIN="$BUILD_DIR/tools/split_campaign"
REPORT="$BUILD_DIR/tools/obs_report"

for W in 1 2 8; do
  echo "== campaign-obs: faulty campaign at $W worker(s) (hang + crash) =="
  CDIR="$OUT/run$W"
  # Watch for the live status document while the campaign runs: it must
  # report state "running" with per-shard telemetry (phase) at some
  # point, not only appear at the end.
  (
    for _ in $(seq 1 600); do
      if grep -q '"state": "running".*"phase"' "$CDIR/campaign_status.json" \
        2>/dev/null; then
        cp "$CDIR/campaign_status.json" "$OUT/live$W.json"
        exit 0
      fi
      sleep 0.1
    done
  ) &
  WATCHER=$!
  REPRO_SCALE="$SCALE" "$BIN" --demo --layers 6 \
    --campaign-dir "$CDIR" --workers "$W" --threads 2 \
    --shard-timeout-s 120 --backoff-ms 50 \
    --heartbeat-s 0.25 --stall-after-s 3 --stall-kill \
    --inject-fault L6_f1=hang:0 \
    --inject-fault L6_f2=crash_after_artifact:0 \
    --trace-out "$OUT/trace$W.json" --metrics-out "$OUT/metrics$W.json" \
    --digest-out "$OUT/digest$W.json" --report-out "$OUT/report$W.json" \
    >"$OUT/run$W.log" 2>&1 || {
    echo "FAIL: campaign at $W worker(s) did not exit 0"
    cat "$OUT/run$W.log"
    exit 1
  }
  wait "$WATCHER" || {
    echo "FAIL: live campaign_status.json never showed state running"
    exit 1
  }
  grep -q '"complete": true' "$OUT/digest$W.json" || {
    echo "FAIL: faulty campaign at $W worker(s) did not complete"
    cat "$OUT/run$W.log"
    exit 1
  }
  grep -q '"stalled_shards": \["L6_f1"\]' "$OUT/report$W.json" || {
    echo "FAIL: stall detector did not flag exactly L6_f1"
    cat "$OUT/report$W.json"
    exit 1
  }
  grep -q '"outcome": "stalled"' "$OUT/report$W.json" || {
    echo "FAIL: report lacks the stalled attempt for the hung worker"
    cat "$OUT/report$W.json"
    exit 1
  }
  grep -q '"outcome": "crashed"' "$OUT/report$W.json" || {
    echo "FAIL: report lacks the crashed attempt for L6_f2"
    exit 1
  }
  # campaign.json and report.json share one shard row format: the
  # finished campaign's two shard tables must be the same JSON.
  python3 - "$OUT/report$W.json" "$CDIR/campaign.json" <<'EOF'
import json, sys
report, state = (json.load(open(p))["shards"] for p in sys.argv[1:])
assert report == state, "report.json and campaign.json shard rows differ"
EOF
  cp "$CDIR/campaign_status.json" "$OUT/final$W.json"
  echo "   stall flagged, both faults retried, campaign complete"
done

echo "== campaign-obs: worker-count differential (status / roll-up / trace) =="
for F in final metrics trace; do
  for W in 2 8; do
    if ! cmp -s "$OUT/${F}1.json" "$OUT/${F}$W.json"; then
      echo "FAIL: $F document differs between 1 and $W workers"
      diff "$OUT/${F}1.json" "$OUT/${F}$W.json" | head -5
      exit 1
    fi
  done
done
echo "   final status, metrics roll-up and merged trace byte-identical" \
  "across {1,2,8} workers"

echo "== campaign-obs: schema validation (python3) =="
python3 - "$OUT/trace1.json" "$OUT/final1.json" "$OUT/live1.json" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
assert trace["displayTimeUnit"] == "ms", "trace displayTimeUnit"
events = trace["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing/empty"
tracks = set()
for e in events:
    assert {"name", "ph", "pid"} <= e.keys(), f"bad event {e}"
    if e["ph"] == "M":
        assert e["name"] == "process_name"
        tracks.add(e["args"]["name"])
    else:
        assert e["ph"] == "X", f"unexpected phase {e['ph']}"
        for k in ("tid", "ts", "dur"):
            assert isinstance(e[k], (int, float)), f"{k} not numeric"
assert len(tracks) == 5, f"expected 5 shard tracks, saw {sorted(tracks)}"

final = json.load(open(sys.argv[2]))
assert final["format_version"] == 1
assert final["state"] == "complete"
assert final["shards_total"] == final["shards_ok"] == 5
assert final["stalled_shards"] == ["L6_f1"]
assert len(final["shards"]) == 5
for row in final["shards"]:
    assert {"id", "status", "attempts", "degraded"} <= row.keys()
    assert "phase" not in row, "final mode must omit volatile fields"
    assert "rss_mb" not in row
rollup = final["rollup"]
assert rollup.get("loo.folds_done") == 5, rollup
assert rollup.get("ml.trees_done", 0) > 0

live = json.load(open(sys.argv[3]))
assert live["state"] == "running"
assert any("phase" in row for row in live["shards"]), \
    "live mode should carry telemetry fields"
print("   trace + final/live status schemas ok")
EOF

echo "== campaign-obs: obs_report --once and the scrape endpoint =="
"$REPORT" --campaign-dir "$OUT/run1" --once >"$OUT/once.log" || {
  echo "FAIL: obs_report --once did not exit 0"
  cat "$OUT/once.log"
  exit 1
}
grep -q "campaign: complete" "$OUT/once.log" || {
  echo "FAIL: obs_report summary does not state completion"
  cat "$OUT/once.log"
  exit 1
}

"$REPORT" --campaign-dir "$OUT/run1" --serve 0 >"$OUT/serve.log" 2>&1 &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true; rm -rf "$OUT"' EXIT
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$OUT/serve.log" || true)
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || {
  echo "FAIL: obs_report --serve never announced its port"
  cat "$OUT/serve.log"
  exit 1
}
python3 - "$PORT" <<'EOF'
import json, sys, urllib.request

port = sys.argv[1]
status = json.load(
    urllib.request.urlopen(f"http://127.0.0.1:{port}/status", timeout=10))
assert status["state"] == "complete", status["state"]
assert status["shards_ok"] == 5
metrics = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
assert "campaign_shards_ok 5" in metrics, metrics[:400]
assert "campaign_loo_folds_done_total 5" in metrics, metrics[:400]
assert "campaign_shard_rss_peak_mb" in metrics
# The watcher's own counters: /status scanned the finished campaign
# once, and /metrics was answered from that cached snapshot.
lines = metrics.splitlines()
assert "# TYPE obs_report_scans_total counter" in lines, metrics[-400:]
assert "obs_report_scans_total 1" in lines, metrics[-400:]
assert "# TYPE obs_report_reused_total counter" in lines, metrics[-400:]
assert "obs_report_reused_total 1" in lines, metrics[-400:]
print("   GET /status and /metrics served the finished campaign")
EOF
kill "$SERVER" 2>/dev/null || true
wait "$SERVER" 2>/dev/null || true

echo "campaign observability check passed"
