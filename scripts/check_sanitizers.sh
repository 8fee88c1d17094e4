#!/bin/bash
# Builds the test suite with ASan + UBSan and runs the ingestion-facing
# tests (parsers, validator, fault injection, pipeline) plus the tree and
# bagging learners, whose presorted split search is all offset
# arithmetic. Any sanitizer finding aborts the run
# (-fno-sanitize-recover=all) and fails the script.
#
# Usage: scripts/check_sanitizers.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
cmake -B "$BUILD_DIR" -S . -DENABLE_SANITIZERS=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target repro_tests

export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'Lef|Def|FaultInjection|BatchIsolation|Validate|BinIo|ArtifactEnvelope|AtomicWrite|Checkpoint|Resilience|MlSerialize|Degradation|RrrWatchdog|Simd|Http|ArtifactCache|AttackServer|CircuitBreaker|RemoteCampaign|DecisionTree|TreeSeedSweep|Bagging' "$@"

echo "sanitizer check passed"
