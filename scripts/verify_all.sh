#!/usr/bin/env bash
# Tier-1 verification in one shot: the plain release build + full ctest
# (the gate every PR must keep green), the bench gate, the soak campaigns,
# the ASan+UBSan configuration via scripts/verify_sanitize.sh, the
# forced-scalar crypto build, the MCT_OBS=OFF build, and the whole-chain
# benchmark's own tests; then an advisory constant-time check.
# Extra arguments are forwarded to the ctest invocations
# (e.g. `scripts/verify_all.sh -R StatePlane`).
#
# The sanitizer pass is not optional garnish: the state-plane eviction,
# sweep, and crash-restart teardown paths (DESIGN.md "State plane",
# "Failure model") move node ownership under shard locks, and lifetime
# bugs there only surface under ASan.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== [1/8] tier-1: release build + ctest ==="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"

echo "=== [2/8] bench gate: smoke benches vs committed baselines ==="
# ctest runs this too (bench_smoke + bench_gate), but an explicit pass keeps
# the gate in the loop even when "$@" filters the test set, and prints the
# comparison where it is easy to see.
cmake --build build --target bench-smoke
python3 scripts/bench_compare.py build/bench-smoke-json bench/baselines/smoke

echo "=== [3/8] soak: seeded chaos campaigns (ctest label: soak) ==="
# Concurrent-session soaks under the deterministic chaos plane (DESIGN.md
# "Concurrency model & chaos plane"). A red soak prints MCT_CHAOS_SEED=<n>
# in every failure; scripts/soak.sh replays that exact schedule. With
# MCT_INCIDENT_DIR exported, every campaign leaves an incident bundle
# (DESIGN.md §17) in build/incidents — triage with build/examples/mcreport.
# Absolute path: ctest runs tests from their own directories, and a
# relative incident dir would silently fail to open there.
MCT_INCIDENT_DIR="${MCT_INCIDENT_DIR:-build/incidents}"
mkdir -p "$MCT_INCIDENT_DIR"
MCT_INCIDENT_DIR="$(cd "$MCT_INCIDENT_DIR" && pwd)"
export MCT_INCIDENT_DIR
ctest --test-dir build --output-on-failure -L soak
# Incident forensics gate: a campaign forced to violate liveness under a
# fixed seed must emit a bundle that parses and round-trips byte-identically
# (tests/http/incident_test.cpp; also part of the tier-1 ctest above — the
# explicit pass keeps the gate alive when "$@" filters the suite).
ctest --test-dir build --output-on-failure -R 'Incident\.'

echo "=== [4/8] sanitizers: ASan+UBSan build + ctest ==="
scripts/verify_sanitize.sh "$@"

echo "=== [5/8] forced-scalar: portable-only crypto build + ctest ==="
# -DMCT_FORCE_SCALAR=ON compiles the AES-NI/SHA-NI translation units out
# entirely — the configuration a non-x86 host builds (DESIGN.md "Crypto
# dispatch"). Running the full suite against it proves the portable scalar
# code still carries the protocol on its own, including the golden
# wire-byte tests (ciphertext is backend-invariant). MCT_FORCE_SCALAR=1 in
# the environment additionally exercises the runtime pin on that build.
cmake -B build-scalar -S . -DMCT_FORCE_SCALAR=ON
cmake --build build-scalar -j "$(nproc)"
MCT_FORCE_SCALAR=1 ctest --test-dir build-scalar --output-on-failure -j "$(nproc)" "$@"

echo "=== [6/8] obs-off: -DMCT_OBS=OFF build + ctest ==="
# Every protocol event and span goes through obs::SessionProbe (DESIGN.md
# "Observability"); building with MCT_OBS=OFF proves that emission compiles
# out in that one place while the always-on session counters keep working.
# The span, flight-recorder and trace-content tests skip by design here.
cmake -B build-obsoff -S . -DMCT_OBS=OFF
cmake --build build-obsoff -j "$(nproc)"
ctest --test-dir build-obsoff --output-on-failure -j "$(nproc)" "$@"

echo "=== [7/8] perfbench: whole-chain benchmark tests ==="
# Short runs of every perfbench workload: per-operation correctness checks
# through the whole client -> middlebox(es) -> server chain, the result-line
# schema, and the exact per-layer counters repeating for a fixed seed
# (perfbench/README.md). Builds into .bench_build/.
python3 perfbench/test_perfbench.py

echo "=== [8/8] constant time (advisory): dudect on sign and X25519 keygen ==="
# Welch t-test of fixed-secret against random-secret timings (DESIGN.md §16).
# |t| > 4.5 prints a WARN line; host noise alone can do that, so this tier
# reports and never fails the ladder.
build/bench/dudect_ct || echo "dudect_ct: could not run (advisory tier, ignored)"

echo "=== verify_all: OK ==="
