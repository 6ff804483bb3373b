#!/usr/bin/env bash
# CI entry point: tier-1 (full build + full ctest), the fault/supervise/
# obs/fleet/simcore/exp/ckpt/codec/smoke label suites rebuilt under
# AddressSanitizer, and the concurrency-heavy tests (obs, campaign engine,
# journal resume, catalog and resilience sweeps, generic scenario sweeps on
# the shared default metric list, supervised sweeps, fleet campaigns)
# under ThreadSanitizer. The simcore label rides along in the ASan/UBSan stages
# because the event engine hands out arena slots with generation-checked
# handles — lifetime bugs there are exactly what the sanitizers exist to
# catch. The codec label (the spec parser plus the random-bytes
# SpecParseFuzz and LedgerFuzz) rides along too: parsers fed arbitrary
# bytes are where out-of-bounds reads hide. The smoke label (the three
# demos and three benches that read compiled-in scenario files, each of
# which must exit 0) rides along so their whole runs are checked for
# memory errors as well. The perf-snapshot gate
# (--bench) is explicit only: it re-runs bench_snapshot against the
# checked-in BENCH_*.json and fails on a regression beyond the tolerance
# band.
#
#   scripts/ci.sh            # tier-1 + asan + tsan + ubsan
#   scripts/ci.sh --tier1    # tier-1 only
#   scripts/ci.sh --asan     # ASan stage only
#   scripts/ci.sh --tsan     # TSan stage only
#   scripts/ci.sh --ubsan    # UBSan stage only
#   scripts/ci.sh --bench    # perf-snapshot regression gate only
#
# Build trees: build/ (tier-1 + bench), build-asan/, build-tsan/, and
# build-ubsan/ (sanitized), all rooted at the repo top so incremental
# reruns are cheap.
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=true
run_asan=true
run_tsan=true
run_ubsan=true
run_bench=false
case "${1:-}" in
  --tier1) run_asan=false; run_tsan=false; run_ubsan=false ;;
  --asan) run_tier1=false; run_tsan=false; run_ubsan=false ;;
  --tsan) run_tier1=false; run_asan=false; run_ubsan=false ;;
  --ubsan) run_tier1=false; run_asan=false; run_tsan=false ;;
  --bench)
    run_tier1=false; run_asan=false; run_tsan=false; run_ubsan=false
    run_bench=true
    ;;
  "") ;;
  *)
    echo "usage: scripts/ci.sh [--tier1|--asan|--tsan|--ubsan|--bench]" >&2
    exit 2
    ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

if $run_tier1; then
  echo "=== tier-1: full build + ctest ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
fi

if $run_asan; then
  echo "=== asan: faults + supervise + obs + fleet + simcore + exp + ckpt + codec + smoke labels under AddressSanitizer ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMDARE_SANITIZE=address
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan -L 'faults|supervise|obs|fleet|simcore|exp|ckpt|codec|smoke' \
    --output-on-failure -j "$jobs"
fi

if $run_tsan; then
  echo "=== tsan: concurrency-heavy tests under ThreadSanitizer ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMDARE_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R '^(ObsConcurrency|ThreadPool|Campaign|ScenarioCatalog|ScenarioCampaign|ResilienceCampaign|CampaignJournal|HeartbeatDetector|HazardEstimator|AdaptiveCheckpointController|SupervisedRun|DetectionCampaign|FleetCampaign|StormCampaign)\.'
fi

if $run_ubsan; then
  echo "=== ubsan: faults + supervise + simcore + exp + ckpt + codec labels under UndefinedBehaviorSanitizer ==="
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMDARE_SANITIZE=undefined
  cmake --build build-ubsan -j "$jobs"
  ctest --test-dir build-ubsan -L 'faults|supervise|simcore|exp|ckpt|codec' \
    --output-on-failure -j "$jobs"
fi

if $run_bench; then
  echo "=== bench: perf-snapshot regression gate ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs" --target bench_snapshot
  ./build/bench/bench_snapshot --check BENCH_micro.json \
    --check BENCH_speed.json --check BENCH_fleet.json
fi

echo "CI OK"
