#!/bin/bash
# The full CI gate, in cost order:
#
#   1. tier-1: default build + `ctest -L fast` (every unit/integration
#      test carries the "fast" label; this is the suite PRs must keep
#      green), then `ctest -L bench`: the bench_pipeline smoke, whose
#      pipeline digests must match bench/pipeline/baseline,
#   2. the SIMD differential suite, re-run with REPRO_SIMD pinned to
#      scalar, avx2 and auto (kernel outputs must stay bit-identical at
#      every dispatch level),
#   3. ASan + UBSan over the ingestion-facing tests,
#   4. TSan over the parallel-path tests,
#   5. the observability end-to-end check (trace/metrics/report JSON
#      schema + determinism),
#   6. the crash-recovery check (deterministic REPRO_FAULT crash +
#      torn write, --resume, digest differential against an
#      uninterrupted run),
#   7. the campaign kill-storm check (supervisor SIGKILLed mid-campaign,
#      worker crashes, corrupt artifact, resume + quarantine), under a
#      hard timeout so a wedged supervisor fails loudly instead of
#      hanging the gate,
#   8. the campaign observability check (worker heartbeats, stall
#      detection on a hung worker, live status document, merged trace +
#      metrics roll-up byte-identical across worker counts, obs_report
#      scrape endpoint), under the same hard-timeout policy,
#   9. the attack-server check (daemon start, concurrent scoring with
#      digest parity against the batch CLI, warm-cache + store
#      hydration, slow/silent-client resilience, SIGKILL + restart from
#      the store, SIGTERM drain), under the same hard-timeout policy,
#  10. the remote-campaign check (shards dispatched to a server fleet:
#      failover, torn responses, the whole fleet down and the local
#      fallback), under the same hard-timeout policy.
#
# Each stage uses its own build tree (build/, build-asan/, build-tsan/),
# so a warm workstation checkout re-runs incrementally. Any failure stops
# the gate (set -e).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ci: tier-1 (build + ctest -L fast) =="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build -L fast -j "$(nproc)" --output-on-failure
ctest --test-dir build -L bench --output-on-failure

echo "== ci: simd differential (REPRO_SIMD levels) =="
scripts/check_simd.sh

echo "== ci: sanitizers (ASan + UBSan) =="
scripts/check_sanitizers.sh

echo "== ci: ThreadSanitizer =="
scripts/check_tsan.sh

echo "== ci: observability end-to-end =="
scripts/check_obs.sh

echo "== ci: crash recovery (kill + resume differential) =="
scripts/check_crash_recovery.sh

echo "== ci: campaign kill-storm (shards + retry + quarantine) =="
timeout 600 scripts/check_campaign.sh

echo "== ci: campaign observability (heartbeats + stall + merged trace) =="
timeout 600 scripts/check_campaign_obs.sh

echo "== ci: attack server (daemon + warm cache + store restart) =="
timeout 600 scripts/check_server.sh

echo "== ci: remote campaign (failover + torn response + fleet down) =="
timeout 900 scripts/check_remote_campaign.sh

echo "ci gate passed"
