#!/bin/bash
# Builds the test suite with ThreadSanitizer and runs the parallel-path
# tests (thread pool primitives, concurrent bagging training, parallel
# candidate scoring with its per-worker buffers and top-K select step,
# the pair-once store whose rows phase 2 reads after other workers wrote
# them in phase 1, the candidate symmetry its cursors rely on, the
# level-1 gate of two-level pruning and PA validation, which score
# through the same engine, the staged LOO, observability counters and
# span buffers).
# REPRO_THREADS=8 forces real concurrency
# even on small machines so TSan has interleavings to observe. Any data
# race fails the script.
#
# ResilienceAttack.ResultRoundTripsBitExactWithEqualDigest is left out:
# it is single-threaded, so TSan has no race to find in it, and under
# TSan it alone runs for ~12 minutes. Tier-1 and check_sanitizers.sh
# still run it.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "$BUILD_DIR" -S . -DENABLE_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target repro_tests

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
export REPRO_THREADS=8

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'Parallel|ThreadInvariance|FlatForest|TopK|Bagging|Attack|TwoLevel|CandidateIndex|Obs|Checkpoint|Resilience|Simd|Http|ArtifactCache|ScopedInline|CircuitBreaker|RemoteCampaign' \
  -E 'ResilienceAttack\.ResultRoundTripsBitExactWithEqualDigest' "$@"

echo "tsan check passed"
