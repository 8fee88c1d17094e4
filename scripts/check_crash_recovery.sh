#!/bin/bash
# Kill-and-resume differential for the checkpoint subsystem, driven by
# the deterministic REPRO_FAULT hook instead of the old poll-then-SIGKILL
# race (which could fire before any artifact landed, or after the scaled
# demo already finished):
#
#   1. builds split_attack,
#   2. runs the built-in LOO demo uninterrupted with --digest-out to get
#      the reference per-design and combined result digests,
#   3. runs again with REPRO_FAULT=crash_after_artifact:$FOLD0_RESULT —
#      the process SIGKILLs itself immediately after fold 0's result
#      commits. The LOO trains every fold before it scores any, so the
#      five demo designs' models commit first (ordinals 0-4) and fold 0's
#      result is ordinal 5, the number of designs; exactly one fold
#      result is durable, every time,
#   4. resumes with --resume at a different thread count and asserts the
#      digest file is byte-identical to the uninterrupted reference,
#   5. repeats the differential for a torn write: a run with
#      REPRO_FAULT=corrupt_artifact:$FOLD0_RESULT commits damaged bytes
#      for fold 0's result while the manifest records the true CRC; the
#      resume must detect the mismatch, recompute that fold, and still
#      reproduce the reference digests,
#   6. kills a single-victim run (fold 0 of the same suite) right after
#      its model commits (REPRO_FAULT=crash_after_artifact:0), resumes it
#      at another thread count to a digest file byte-identical to an
#      uninterrupted single run, then runs --loo --fold 0 --resume on the
#      same directory, which must answer from fold_0.result.
#
# No budget flags are used: budget degradation deliberately changes
# results (and records degradation events), so the determinism proof
# runs at full fidelity.
#
# REPRO_SCALE shrinks the demo suite (default 0.12 here) so the whole
# script finishes in well under a minute.
#
# Usage: scripts/check_crash_recovery.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCALE=${REPRO_SCALE:-0.12}
# Commit ordinal of fold 0's result in a --loo run: one model per demo
# design commits before it.
FOLD0_RESULT=5
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target split_attack >/dev/null

BIN="$BUILD_DIR/tools/split_attack"

echo "== crash-recovery: uninterrupted reference run (4 threads) =="
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 4 \
  --digest-out "$OUT/reference.json" >"$OUT/reference.log"
grep -q '"complete": true' "$OUT/reference.json" || {
  echo "FAIL: reference run did not complete"; cat "$OUT/reference.log"
  exit 1
}

echo "== crash-recovery: deterministic crash after fold 0 commits =="
CKPT="$OUT/ckpt"
set +e
REPRO_SCALE="$SCALE" REPRO_FAULT=crash_after_artifact:$FOLD0_RESULT \
  "$BIN" --demo --loo --threads 1 \
  --checkpoint-dir "$CKPT" --digest-out "$OUT/killed.json" \
  >"$OUT/killed.log" 2>&1
KILLED_RC=$?
set -e
# 137 = 128 + SIGKILL: the fault hook killed the process, as demanded.
if [ "$KILLED_RC" -ne 137 ]; then
  echo "FAIL: expected death by SIGKILL (rc 137), got rc $KILLED_RC"
  cat "$OUT/killed.log"
  exit 1
fi
FOLDS_BEFORE_RESUME=$(ls "$CKPT"/fold_*.result 2>/dev/null | wc -l)
echo "   crashed with rc 137; durable fold results: $FOLDS_BEFORE_RESUME"
if [ "$FOLDS_BEFORE_RESUME" -ne 1 ]; then
  echo "FAIL: expected exactly 1 committed fold result, found $FOLDS_BEFORE_RESUME"
  exit 1
fi

echo "== crash-recovery: resume at a different thread count (8) =="
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 8 \
  --checkpoint-dir "$CKPT" --resume --digest-out "$OUT/resumed.json" \
  >"$OUT/resumed.log"

echo "== crash-recovery: differential =="
if ! diff -u "$OUT/reference.json" "$OUT/resumed.json"; then
  echo "FAIL: resumed digests differ from the uninterrupted reference"
  exit 1
fi
COMBINED=$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$OUT/resumed.json" |
  head -1)
echo "combined digest reproduced across kill+resume: $COMBINED"

echo "== crash-recovery: torn-write (corrupt artifact, true CRC) =="
CKPT2="$OUT/ckpt-corrupt"
REPRO_SCALE="$SCALE" REPRO_FAULT=corrupt_artifact:$FOLD0_RESULT \
  "$BIN" --demo --loo --threads 1 \
  --checkpoint-dir "$CKPT2" --digest-out "$OUT/corrupt.json" \
  >"$OUT/corrupt.log" 2>&1 || true
# Resume from the poisoned checkpoint: fold 0's result fails its CRC,
# gets recomputed, and the digests must still match the reference.
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 2 \
  --checkpoint-dir "$CKPT2" --resume --digest-out "$OUT/healed.json" \
  >"$OUT/healed.log" 2>&1
if ! grep -q "corrupt" "$OUT/healed.log"; then
  echo "FAIL: resume did not report the corrupt artifact"
  cat "$OUT/healed.log"
  exit 1
fi
if ! diff -u "$OUT/reference.json" "$OUT/healed.json"; then
  echo "FAIL: digests after corrupt-artifact recovery differ from reference"
  exit 1
fi
echo "   corrupt fold result detected and recomputed; digests match"

echo "== crash-recovery: single-victim run killed after its model commit =="
REPRO_SCALE="$SCALE" "$BIN" --demo --threads 4 \
  --digest-out "$OUT/single_reference.json" >"$OUT/single_reference.log"
CKPT3="$OUT/ckpt-single"
set +e
REPRO_SCALE="$SCALE" REPRO_FAULT=crash_after_artifact:0 \
  "$BIN" --demo --threads 1 \
  --checkpoint-dir "$CKPT3" --digest-out "$OUT/single_killed.json" \
  >"$OUT/single_killed.log" 2>&1
KILLED_RC=$?
set -e
if [ "$KILLED_RC" -ne 137 ]; then
  echo "FAIL: expected death by SIGKILL (rc 137), got rc $KILLED_RC"
  cat "$OUT/single_killed.log"
  exit 1
fi
if [ ! -f "$CKPT3/fold_0.model" ]; then
  echo "FAIL: the single-victim run left no fold_0.model behind"
  ls "$CKPT3"
  exit 1
fi
REPRO_SCALE="$SCALE" "$BIN" --demo --threads 8 \
  --checkpoint-dir "$CKPT3" --resume --digest-out "$OUT/single_resumed.json" \
  >"$OUT/single_resumed.log"
if ! diff -u "$OUT/single_reference.json" "$OUT/single_resumed.json"; then
  echo "FAIL: resumed single-victim digests differ from the reference"
  exit 1
fi
# Same suite, same run key, same artifact names: the LOO shard worker
# for fold 0 finds the finished result instead of recomputing it.
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --fold 0 --threads 2 \
  --checkpoint-dir "$CKPT3" --resume --digest-out "$OUT/fold0.json" \
  --metrics-out "$OUT/fold0_metrics.json" >"$OUT/fold0.log"
if ! grep -q '"resume.folds_loaded": 1' "$OUT/fold0_metrics.json"; then
  echo "FAIL: --loo --fold 0 did not resume from fold_0.result"
  cat "$OUT/fold0_metrics.json"
  exit 1
fi
if ! diff -u "$OUT/single_reference.json" "$OUT/fold0.json"; then
  echo "FAIL: --loo --fold 0 digests differ from the single-victim run"
  exit 1
fi
echo "   single-victim run resumed past its model; --fold 0 reused its result"
echo "crash-recovery check passed"
