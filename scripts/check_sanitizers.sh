#!/bin/bash
# Builds the test suite with ASan + UBSan (float-cast-overflow included)
# and runs the ingestion-facing tests (parsers — the JSON reader behind
# request bodies and state files, the campaign.json row reader and the
# telemetry.jsonl tail among them —, campaign directory scans,
# validator, fault injection, the core::load_suites suite loader
# (BatchIsolation), the model decoders load_model and load_bagging
# (ResilienceAttack, MlSerialize), command-line flags) plus the tree
# and bagging learners, whose presorted split search is all offset
# arithmetic, the forest kernels at the engine's 1024-row batches
# (FlatForest, FlatForestKernels: the AVX2 frontier's offset and gather
# arithmetic), and the bookkeeping after scoring: the top-K radix sort
# (TopK, and the engine's ranked lists as two-level pruning in TwoLevel
# and PA validation in ProximityAttack read them) and result_digest's
# zero-run skipping (ResultDigest), and candidate collection
# (CandidateIndex, IndexScan, DifferentialCollect): the AVX2 sweeps and
# the track scan store a full 8-lane vector at the output cursor, into
# the kScanSlack slots collect reserves past the worst-case count. Any
# sanitizer finding aborts the run (-fno-sanitize-recover=all) and fails
# the script.
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
  -R 'Lef|Def|FaultInjection|BatchIsolation|Validate|BinIo|ArtifactEnvelope|AtomicWrite|Checkpoint|Resilience|MlSerialize|Degradation|RrrWatchdog|Simd|Http|ArtifactCache|AttackServer|CircuitBreaker|RemoteCampaign|DecisionTree|TreeSeedSweep|Bagging|CliFlags|JsonScan|ScanCampaignDir|CampaignTable|Telemetry|ResultDigest|TopK|TwoLevel|FlatForest|ProximityAttack|CandidateIndex|IndexScan|DifferentialCollect' "$@"

echo "sanitizer check passed"
