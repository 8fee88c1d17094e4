#!/bin/bash
# Attack-server end-to-end check, against the real binary:
#
#   1. builds split_attack + split_attack_server,
#   2. computes the batch reference: `split_attack --demo --loo
#      --digest-out` (fold i of the server's demo suite is design i of
#      the batch LOO run, by construction),
#   3. starts the daemon with a persistent store and asserts
#        - the cold request trains ("cache": "trained") and its digest
#          equals the batch fold digest,
#        - the repeat request is a warm hit ("cache": "hit"), same
#          digest,
#        - concurrent clients across all folds at 4 handler threads get
#          digests byte-identical to the batch CLI (the ScopedInline
#          determinism contract),
#        - /metrics carries the cache counters and the histogram _sum
#          series (the Prometheus exposition fix),
#        - a silent client and a byte-at-a-time dribbling client
#          neither wedge the server nor get misparsed (the serve-loop
#          hang fix: the next real request must still be served),
#   4. SIGKILLs the daemon mid-request, restarts it on the same store,
#      and asserts the previously trained fold is served from the store
#      ("cache": "store") without retraining, while the killed request's
#      key retrains ("cache": "trained"): its store commit never became
#      durable. The first daemon runs with REPRO_FAULT=hang:K, so that
#      commit parks forever and the kill cannot race a fast trainer,
#   5. SIGTERMs the daemon and asserts a clean drain (exit 0).
#
# scripts/ci.sh runs this under a hard `timeout`: a wedged serve loop
# turns into a loud failure, not a hung gate.
#
# Usage: scripts/check_server.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCALE=${REPRO_SCALE:-0.05}
OUT=$(mktemp -d)
SRV=""
trap 'kill -9 "$SRV" 2>/dev/null || true; rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target split_attack split_attack_server >/dev/null

ATTACK="$BUILD_DIR/tools/split_attack"
SERVER="$BUILD_DIR/tools/split_attack_server"

echo "== server: batch reference (split_attack --demo --loo) =="
REPRO_SCALE="$SCALE" "$ATTACK" --demo --loo \
  --digest-out "$OUT/batch.json" >"$OUT/batch.log" 2>&1 || {
  echo "FAIL: batch split_attack --demo --loo did not exit 0"
  cat "$OUT/batch.log"
  exit 1
}
grep -q '"complete": true' "$OUT/batch.json" || {
  echo "FAIL: batch digest file is incomplete"
  cat "$OUT/batch.json"
  exit 1
}

# Launches the daemon and sets the globals SRV (its pid — the binary is
# spawned directly, not through a compound command, so $! really is the
# server and `wait` sees a child of this shell) and PORT (the announced
# port). Deliberately NOT called in a $(...) substitution: that would
# run it in a subshell and lose both.
start_server() {
  local log=$1
  shift
  REPRO_SCALE="$SCALE" "$SERVER" --demo --port 0 --threads 4 \
    --store-dir "$OUT/store" --read-deadline-s 1 "$@" >"$log" 2>&1 &
  SRV=$!
  PORT=""
  for _ in $(seq 1 300); do
    PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [ -n "$PORT" ] && break
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "FAIL: server never announced its port"
    cat "$log"
    exit 1
  fi
}

# Store commits the first daemon makes before step 4: one model per
# demo fold (fold 0 cold, folds 1-4 in the concurrent pass). Commit
# STORE_COMMITS is therefore step 4's, and hang:STORE_COMMITS parks it.
STORE_COMMITS=5

echo "== server: cold / warm / concurrent digest parity =="
REPRO_FAULT="hang:$STORE_COMMITS" start_server "$OUT/serve1.log"
python3 - "$PORT" "$OUT/batch.json" <<'EOF'
import json, sys, threading, urllib.request

port, batch_path = sys.argv[1], sys.argv[2]
batch = json.load(open(batch_path))
folds = [row["digest"] for row in batch["designs"]]

def score(fold):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/score",
        data=json.dumps({"fold": fold}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    return json.load(urllib.request.urlopen(req, timeout=600))

cold = score(0)
assert cold["cache"] == "trained", cold
assert cold["digest"] == folds[0], (cold["digest"], folds[0])
warm = score(0)
assert warm["cache"] == "hit", warm
assert warm["digest"] == folds[0]
assert warm["hydrate_seconds"] < cold["hydrate_seconds"]
print(f"   cold trained in {cold['hydrate_seconds']:.3f}s, "
      f"warm hit in {warm['hydrate_seconds']:.3f}s")

# Concurrent clients, two passes over every fold: every response must
# carry the batch CLI's digest for its fold.
results = {}
def client(slot):
    fold = slot % len(folds)
    results[slot] = score(fold)
threads = [threading.Thread(target=client, args=(s,))
           for s in range(2 * len(folds))]
for t in threads: t.start()
for t in threads: t.join()
for slot, resp in results.items():
    fold = slot % len(folds)
    assert resp["digest"] == folds[fold], \
        f"fold {fold}: server {resp['digest']} != batch {folds[fold]}"
print(f"   {len(results)} concurrent responses match the batch CLI "
      f"across {len(folds)} folds")

metrics = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
assert "server_cache_hits_total" in metrics, metrics[:400]
assert "server_requests_scored_total" in metrics
assert "_sum " in metrics, "histogram _sum series missing from /metrics"
print("   /metrics exposes cache counters and histogram _sum")
EOF

echo "== server: silent + dribbling clients do not wedge the loop =="
python3 - "$PORT" <<'EOF'
import socket, sys, time, urllib.request

port = int(sys.argv[1])
# A connection that never sends a byte: the read deadline (1s) must
# reap it without blocking the accept loop.
silent = socket.create_connection(("127.0.0.1", port))
# A request dribbled across many TCP segments must still parse.
dribble = socket.create_connection(("127.0.0.1", port))
for chunk in (b"GE", b"T /heal", b"thz HTT", b"P/1.0\r", b"\n\r\n"):
    dribble.send(chunk)
    time.sleep(0.05)
raw = b""
while b"\r\n\r\n" not in raw:
    got = dribble.recv(4096)
    if not got:
        break
    raw += got
assert raw.startswith(b"HTTP/1.0 200"), raw[:80]
dribble.close()
# The server must still answer a well-formed request immediately.
status = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/healthz", timeout=10).read()
assert b"ok" in status, status
silent.close()
print("   dribbled request parsed, silent client reaped, loop alive")
EOF

echo "== server: SIGKILL mid-request, restart serves from the store =="
MODELS=$(find "$OUT/store" -name 'model_*' | wc -l)
[ "$MODELS" -eq "$STORE_COMMITS" ] || {
  echo "FAIL: the store holds $MODELS models before the kill, not" \
    "$STORE_COMMITS, so hang:$STORE_COMMITS would not park this commit"
  exit 1
}
# A key this daemon has never trained: the request trains and then parks
# in its store commit, so the kill lands mid-request however fast
# training is. A response would mean the kill came too late.
KILLED_KEY='{"fold": 2, "config": "Imp-11"}'
python3 - "$PORT" "$KILLED_KEY" "$OUT/victim_answered" <<'EOF' &
import sys, urllib.request
try:
    req = urllib.request.Request(
        f"http://127.0.0.1:{sys.argv[1]}/score",
        data=sys.argv[2].encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    urllib.request.urlopen(req, timeout=600)
    open(sys.argv[3], "w").close()
except Exception:
    pass  # the kill below is expected to sever this request
EOF
VICTIM_CLIENT=$!
sleep 0.3
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
wait "$VICTIM_CLIENT" 2>/dev/null || true
[ ! -e "$OUT/victim_answered" ] || {
  echo "FAIL: the killed request was answered before the kill"
  exit 1
}

start_server "$OUT/serve2.log"
python3 - "$PORT" "$OUT/batch.json" "$KILLED_KEY" <<'EOF'
import json, sys, urllib.request

port, batch_path, killed_key = sys.argv[1], sys.argv[2], sys.argv[3]
folds = [row["digest"] for row in json.load(open(batch_path))["designs"]]

def score(body):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/score", data=body.encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    return json.load(urllib.request.urlopen(req, timeout=600))

resp = score('{"fold": 0}')
assert resp["cache"] == "store", \
    f"expected a store hydration after restart, got {resp['cache']}"
assert resp["digest"] == folds[0]
print(f"   fold 0 hydrated from the store in "
      f"{resp['hydrate_seconds']:.3f}s, digest matches the batch CLI")
killed = score(killed_key)
assert killed["cache"] == "trained", \
    f"the killed key's commit must not be durable, got {killed['cache']}"
print("   the killed request's key retrains: its commit never landed")
EOF

echo "== server: SIGTERM drains cleanly =="
kill -TERM "$SRV"
RC=0
wait "$SRV" || RC=$?
[ "$RC" -eq 0 ] || {
  echo "FAIL: server exited $RC on SIGTERM"
  cat "$OUT/serve2.log"
  exit 1
}
grep -q "shutdown:" "$OUT/serve2.log" || {
  echo "FAIL: no drain summary in the server log"
  cat "$OUT/serve2.log"
  exit 1
}
SRV=""

echo "check_server passed"
