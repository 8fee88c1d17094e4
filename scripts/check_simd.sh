#!/bin/bash
# Runs the SIMD differential tests at every dispatch level the build
# knows about: REPRO_SIMD=scalar|avx2|auto each re-run the kernel
# bit-identity suite (FlatForest batch kernels against the scalar walk
# and the DecisionTree pointer walk, attack digests across levels x
# threads, the OraclePins table of recorded digests for every
# configuration the paper reports, and candidate collection's sweep and
# track scan against the brute-force admits scan in DifferentialCollect)
# with that level pinned. avx2 clamps down to scalar inside
# the shim on hosts without AVX2, so that pass degrades gracefully
# instead of being skipped silently.
#
# Uses the default build tree (build/); creates it if missing.
#
# Usage: scripts/check_simd.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target repro_tests

for level in scalar avx2 auto; do
  echo "== simd differential: REPRO_SIMD=$level =="
  REPRO_SIMD="$level" ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Simd|FlatForest|OraclePins|IndexScan|DifferentialCollect' "$@"
done

echo "simd check passed"
