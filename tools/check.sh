#!/bin/sh
# Developer gate for the parallel execution engine and the SoA
# thermal kernel.
#
# Builds the repo three times - a normal Release tree, a
# ThreadSanitizer tree (TTS_SANITIZE=thread), and an ASan+UBSan tree
# (TTS_SANITIZE=address) - and runs the suites that exercise
# tts::exec, the seeded simulator, and the numerical guard under
# them.  The Release tree also runs the perf lane: the ctest perf
# smoke label, then the full two-day thermal-kernel gate (2x speedup
# + bit-identity), the parallel-sweep bench, the 40k-server fleet
# gate (wall-clock budget, 1-vs-8-thread bit-identity, 10x dedupe
# leverage), the wax-placement search gate (1t==8t, beats the
# uniform-wax 2U baseline), the cooling-plant gate (four backends
# bit-identical 1t vs 8t, MPC beats static CRAC by the margin), and
# the scenario-daemon gate (latency percentiles, cache hit rate,
# shed-under-overload sanity, manifest warm-start hit rate, and
# batched-miss throughput), which write the CI tracked
# BENCH_thermal.json / BENCH_sweep.json / BENCH_fleet.json /
# BENCH_opt.json / BENCH_plant.json / BENCH_serve.json at the repo
# root:
#
#   tools/check.sh           # fast + guard + fault + obs + fleet +
#                            # opt + serve + perf, sanitizers,
#                            # BENCH_*.json
#   tools/check.sh --full    # also the integration label (slow)
#
# The integration label pins the opt.* golden keys; after a
# deliberate search or oracle change, refresh them with
#     ./build/tools/tts_golden tests/data/golden.json
# and review the diff.
#
# Exits non-zero on the first failure.

set -eu

cd "$(dirname "$0")/.."

FULL=0
[ "${1:-}" = "--full" ] && FULL=1

echo "== Release build =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build -j > /dev/null

echo "== ctest -L fast =="
ctest --test-dir build -L fast --output-on-failure -j

echo "== ctest -L guard =="
ctest --test-dir build -L guard --output-on-failure -j

echo "== ctest -L fault =="
ctest --test-dir build -L fault --output-on-failure -j

echo "== ctest -L obs =="
ctest --test-dir build -L obs --output-on-failure -j

echo "== ctest -L fleet =="
ctest --test-dir build -L fleet --output-on-failure -j

echo "== ctest -L opt =="
ctest --test-dir build -L opt --output-on-failure -j

echo "== ctest -L serve =="
ctest --test-dir build -L serve --output-on-failure -j

echo "== ctest -L plant =="
ctest --test-dir build -L plant --output-on-failure -j

echo "== ctest -L perf (smoke) =="
ctest --test-dir build -L perf --output-on-failure -j

echo "== perf gate: SoA thermal kernel (2x, bit-identity) =="
./build/bench/perf_thermal_kernel --min-speedup=2.0 \
    --out=BENCH_thermal.json

echo "== perf: parallel sweep =="
./build/bench/perf_parallel_sweep --out=BENCH_sweep.json

echo "== perf gate: 40k-server fleet (10-min wall, 1t==8t, 10x dedupe) =="
./build/bench/perf_fleet --min-dedupe-speedup=10.0 \
    --out=BENCH_fleet.json

echo "== perf gate: wax-placement search (1t==8t, beats uniform 2U) =="
./build/bench/perf_opt --out=BENCH_opt.json

echo "== perf gate: cooling plant (1t==8t, MPC beats static CRAC) =="
./build/bench/perf_plant --out=BENCH_plant.json

echo "== perf gate: scenario daemon (latency, hit rate, shed, warm start, batching) =="
./build/bench/perf_serve --out=BENCH_serve.json

if [ "$FULL" = "1" ]; then
    echo "== ctest -L integration =="
    ctest --test-dir build -L integration --output-on-failure -j
fi

echo "== ThreadSanitizer build (TTS_SANITIZE=thread) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTTS_SANITIZE=thread > /dev/null
cmake --build build-tsan -j \
    --target tts_exec_test tts_workload_test tts_fault_test \
    tts_obs_test tts_fleet_test tts_opt_test tts_plant_test \
    tts_serve_test > /dev/null

echo "== TSan: exec engine, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_exec_test
echo "== TSan: seeded cluster simulator =="
./build-tsan/tests/tts_workload_test \
    --gtest_filter='DcSim*'
echo "== TSan: fault injection + resilience grid, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_fault_test
echo "== TSan: obs trace/metrics/profile, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_obs_test
echo "== TSan: sharded fleet sim, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_fleet_test
echo "== TSan: wax-placement search, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_opt_test
echo "== TSan: cooling-plant backends + MPC, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_plant_test
echo "== TSan: scenario daemon + fault-injection soak, 8 workers =="
TTS_THREADS=8 ./build-tsan/tests/tts_serve_test
echo "== TSan: multi-client socket soak, 8 sessions x 8 workers =="
# The mux/batcher/daemon stack under its most concurrent test: 8
# framed sessions (slow readers, disconnects, malformed frames from
# the serve fault plan) multiplexed onto 8 workers.  Redundant with
# the full-suite lane above, but kept separate so a data race in the
# session mux is named by the lane that fails.
TTS_THREADS=8 ./build-tsan/tests/tts_serve_test \
    --gtest_filter='ServeMux.MultiClientSoak*:ServeBatch.*'

echo "== ASan+UBSan build (TTS_SANITIZE=address) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTTS_SANITIZE=address > /dev/null
cmake --build build-asan -j \
    --target tts_guard_test tts_util_test tts_workload_test \
    tts_thermal_test tts_fleet_test tts_plant_test > /dev/null

echo "== ASan: numerical guard + checkpoint resume + state codecs =="
./build-asan/tests/tts_guard_test
echo "== ASan: integrator + kv_json + rng =="
./build-asan/tests/tts_util_test
echo "== ASan: cluster simulator save/restore =="
./build-asan/tests/tts_workload_test --gtest_filter='ClusterSim*'
echo "== ASan: SoA thermal kernel + airflow memo =="
./build-asan/tests/tts_thermal_test
echo "== ASan: fleet checkpoint save/restore + digest oracle =="
./build-asan/tests/tts_fleet_test \
    --gtest_filter='FleetCheckpoint.*:-FleetCheckpoint.WarehouseResumeIsBitIdentical'
echo "== ASan: plant runner kill/resume =="
./build-asan/tests/tts_plant_test --gtest_filter='RunPlant.*'

echo "OK"
