#!/bin/bash
# Chaos differential for the distributed campaign dispatcher:
#
#   1. builds split_attack + split_campaign + split_attack_server +
#      obs_report,
#   2. runs the 10-shard demo campaign (layers 6,8 x 5 LOO folds)
#      locally to get the reference digest file,
#   3. starts TWO demo attack servers serving both layers, runs the
#      same campaign with --remote over both, and SIGKILLs one server
#      mid-campaign: the dispatcher must fail over to the survivor,
#      the campaign must complete, and the digest file must be
#      byte-identical to the local reference; obs_report, reading only
#      the campaign directory, must report the same fleet counters as
#      the campaign's own report,
#   4. reruns remotely with REPRO_FAULT=net_truncate:0 in the
#      *supervisor's* environment (the fetches happen in-process): the
#      torn response fails the X-Payload-Fnv check, is retried, and is
#      answered idempotently from the server's result store — same
#      digest file, retries visible in the report,
#   5. runs with the whole fleet dead (two bound-then-closed ports):
#      every shard degrades to a local worker subprocess, the campaign
#      still completes, and the digest file is still byte-identical.
#
# scripts/ci.sh runs this under a hard `timeout`: a wedged dispatcher
# or an unreaped server turns into a loud failure, not a hung gate.
#
# Usage: scripts/check_remote_campaign.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCALE=${REPRO_SCALE:-0.12}
OUT=$(mktemp -d)
SRV1=""
SRV2=""
trap 'kill -9 "$SRV1" "$SRV2" 2>/dev/null || true; rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target split_attack split_campaign split_attack_server obs_report \
  >/dev/null

CAMPAIGN="$BUILD_DIR/tools/split_campaign"
SERVER="$BUILD_DIR/tools/split_attack_server"
REPORT="$BUILD_DIR/tools/obs_report"

echo "== remote campaign: local 10-shard reference =="
REPRO_SCALE="$SCALE" "$CAMPAIGN" --demo --layers 6,8 \
  --campaign-dir "$OUT/ref" --workers 2 --threads 2 \
  --digest-out "$OUT/reference.json" >"$OUT/reference.log"
grep -q '"complete": true' "$OUT/reference.json" || {
  echo "FAIL: local reference campaign did not complete"
  cat "$OUT/reference.log"
  exit 1
}

# Launches a demo server for both campaign layers and echoes its port.
# NOT called in a $(...) substitution: the pid globals must survive.
start_server() {
  local pidvar=$1 portvar=$2 log=$3 store=$4
  REPRO_SCALE="$SCALE" "$SERVER" --demo --split 6 --split 8 \
    --port 0 --threads 2 --store-dir "$store" --read-deadline-s 2 \
    >"$log" 2>&1 &
  printf -v "$pidvar" '%s' "$!"
  local pid=${!pidvar} port=""
  for _ in $(seq 1 600); do
    port=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [ -n "$port" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "FAIL: server never announced its port"
    cat "$log"
    exit 1
  fi
  printf -v "$portvar" '%s' "$port"
}

echo "== remote campaign: two servers, one SIGKILLed mid-campaign =="
start_server SRV1 PORT1 "$OUT/server1.log" "$OUT/store1"
start_server SRV2 PORT2 "$OUT/server2.log" "$OUT/store2"
REPRO_SCALE="$SCALE" "$CAMPAIGN" --demo --layers 6,8 \
  --campaign-dir "$OUT/chaos" --workers 2 --threads 2 \
  --remote "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  --remote-attempts 2 --remote-backoff-ms 20 --breaker-failures 2 \
  --breaker-cooldown-ms 500 \
  --digest-out "$OUT/chaos.json" --report-out "$OUT/chaos-report.json" \
  >"$OUT/chaos.log" 2>&1 &
CPID=$!
sleep 1
kill -9 "$SRV1"
wait "$SRV1" 2>/dev/null || true
SRV1=""
RC=0
wait "$CPID" || RC=$?
if [ "$RC" -ne 0 ]; then
  echo "FAIL: remote campaign exited $RC after losing a server"
  cat "$OUT/chaos.log"
  exit 1
fi
cmp -s "$OUT/reference.json" "$OUT/chaos.json" || {
  echo "FAIL: digest file diverged from the local reference after failover"
  diff "$OUT/reference.json" "$OUT/chaos.json" || true
  exit 1
}
FAILOVERS=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["remote"]["failovers"])' \
  "$OUT/chaos-report.json")
REMOTE_OK=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["remote"]["remote_ok"])' \
  "$OUT/chaos-report.json")
if [ "$FAILOVERS" -lt 1 ] && [ "$REMOTE_OK" -lt 10 ]; then
  echo "FAIL: lost server neither failed over nor finished remotely"
  cat "$OUT/chaos-report.json"
  exit 1
fi
echo "   digests byte-identical; $FAILOVERS failover(s), $REMOTE_OK remote shards"

# The fleet block round-trips through campaign.json: a file-only
# observer sees the counters the supervisor reported. Breaker state is
# skipped — an open breaker turns half-open as the clock runs.
"$REPORT" --campaign-dir "$OUT/chaos" --json >"$OUT/chaos-obs.json" || {
  echo "FAIL: obs_report --json failed on the chaos campaign"
  exit 1
}
python3 - "$OUT/chaos-report.json" "$OUT/chaos-obs.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))["remote"]
seen = json.load(open(sys.argv[2]))["remote"]
for key in ("requests", "retries", "failovers", "breaker_trips",
            "local_fallbacks", "remote_ok"):
    assert seen[key] == report[key], (key, seen[key], report[key])
strip = lambda eps: [(e["endpoint"], e["requests"], e["failures"])
                     for e in eps]
assert strip(seen["endpoints"]) == strip(report["endpoints"]), \
    (seen["endpoints"], report["endpoints"])
print("   obs_report reads back the same fleet counters")
EOF

echo "== remote campaign: injected torn response (net_truncate:0) =="
REPRO_SCALE="$SCALE" REPRO_FAULT=net_truncate:0 "$CAMPAIGN" \
  --demo --layers 6,8 \
  --campaign-dir "$OUT/torn" --workers 1 --threads 2 \
  --remote "127.0.0.1:$PORT2" \
  --remote-attempts 3 --remote-backoff-ms 20 \
  --digest-out "$OUT/torn.json" --report-out "$OUT/torn-report.json" \
  >"$OUT/torn.log" 2>&1 || {
  echo "FAIL: torn-response campaign did not exit 0"
  cat "$OUT/torn.log"
  exit 1
}
cmp -s "$OUT/reference.json" "$OUT/torn.json" || {
  echo "FAIL: digest file diverged under the injected torn response"
  diff "$OUT/reference.json" "$OUT/torn.json" || true
  exit 1
}
RETRIES=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["remote"]["retries"])' \
  "$OUT/torn-report.json")
if [ "$RETRIES" -lt 1 ]; then
  echo "FAIL: the truncated response was not retried"
  cat "$OUT/torn-report.json"
  exit 1
fi
echo "   torn response retried ($RETRIES) and digests stayed identical"
kill -TERM "$SRV2"
wait "$SRV2" 2>/dev/null || true
SRV2=""

echo "== remote campaign: whole fleet dead, local fallback =="
DEAD=$(python3 -c 'import socket
ports = []
socks = []
for _ in range(2):
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    socks.append(s)
    ports.append(s.getsockname()[1])
for s in socks: s.close()
print(",".join(f"127.0.0.1:{p}" for p in ports))')
REPRO_SCALE="$SCALE" "$CAMPAIGN" --demo --layers 6,8 \
  --campaign-dir "$OUT/down" --workers 2 --threads 2 \
  --remote "$DEAD" --remote-attempts 1 --remote-backoff-ms 10 \
  --breaker-failures 1 --breaker-cooldown-ms 100 \
  --digest-out "$OUT/down.json" --report-out "$OUT/down-report.json" \
  >"$OUT/down.log" 2>&1 || {
  echo "FAIL: fleet-down campaign did not exit 0"
  cat "$OUT/down.log"
  exit 1
}
cmp -s "$OUT/reference.json" "$OUT/down.json" || {
  echo "FAIL: digest file diverged with the fleet down"
  diff "$OUT/reference.json" "$OUT/down.json" || true
  exit 1
}
FALLBACKS=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["remote"]["local_fallbacks"])' \
  "$OUT/down-report.json")
SHARDS=$(grep -o '"id"' "$OUT/down-report.json" | wc -l)
if [ "$FALLBACKS" -ne "$SHARDS" ]; then
  echo "FAIL: expected all $SHARDS shards to fall back locally, got $FALLBACKS"
  cat "$OUT/down-report.json"
  exit 1
fi
echo "   all $SHARDS shards degraded to local workers, digests identical"

echo "check_remote_campaign passed"
