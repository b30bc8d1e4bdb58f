#!/bin/sh
# Developer gate: one Release build, every ctest label, the
# thermal-kernel perf gate, and sanitizer builds of the threaded and
# parser-heavy suites.
#
#  1. Release tree (build/): ctest labels fast, guard, fault, obs
#     (followed by the extension_obs_overhead gate: projected
#     disabled-obs overhead <= 2 %), fleet, opt, serve, plant and
#     perf (the perf_thermal_kernel smoke), then the full two-day
#     thermal-kernel gate - cached kernel >= 2x the reference
#     arithmetic with a bit-identical end state and a bit-identical
#     1-vs-8-thread 16-server fleet - which rewrites
#     BENCH_thermal.json at the repo root.
#  2. ThreadSanitizer tree (build-tsan/, TTS_SANITIZE=thread): the
#     exec, fault, obs, fleet, opt, plant and serve suites at 8
#     threads, the DCSim tests, 50 repeats of the daemon's ladder
#     tests, the multi-client socket soak, and the tts_sim CLI smoke
#     (a fleet with metrics, trace and profile on).
#  3. ASan+UBSan tree (build-asan/, TTS_SANITIZE=address): the guard
#     and util suites, cluster save/restore and round-robin dispatch
#     around dead servers (DcSimFaultInvariants.*), fleet
#     save/restore and slice stepping (FleetCheckpoint.*, including
#     the pause off a slice boundary, and FleetStep.*: a slice stores
#     one read-out per row per step in buffers indexed by slice step),
#     the PCM enthalpy curve and element, the thermal kernel, plant
#     kill/resume, the wax-placement search (its folds read memoized
#     archetype trajectories, which the memo evicts between batches),
#     and the untrusted-input parsers: serve frames, requests and
#     manifests, the fault schedule, the weather trace and the trace
#     CSV.  tts_hot_path_alloc_test stays out of both
#     sanitizer trees: it replaces operator new, which their runtimes
#     interpose.
#
# Wall-clock performance is not gated here: perfbench/ (see
# BENCHMARK.json) times the fleet, opt and serve paths.
#
#   tools/check.sh           # everything above
#   tools/check.sh --full    # also the integration label (slow)
#
# The integration label pins the golden keys; after a deliberate
# model, search or oracle change, refresh them with
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
echo "== obs overhead gate: projected disabled overhead <= 2 % =="
./build/bench/extension_obs_overhead

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
    tts_serve_test tts_sim > /dev/null

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
echo "== TSan: tts_sim CLI smoke, fleet with obs on at 1 and 8 threads =="
# The only lane that steps a fleet with obs enabled: per-row obs
# clocks, melt events and profile scopes on worker threads.  A race
# report makes tts_sim exit non-zero, which fails the smoke.
sh tests/tools/tts_sim_cli_smoke.sh ./build-tsan/tools/tts_sim \
    build-tsan/tts_sim_cli_smoke
echo "== TSan: wax-placement search, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_opt_test
echo "== TSan: cooling-plant backends + MPC, 8 threads =="
TTS_THREADS=8 ./build-tsan/tests/tts_plant_test
echo "== TSan: scenario daemon + fault-injection soak, 8 workers =="
# The hostile soak is a session of the mux, the one session loop, so
# this lane races the mux as well as the daemon.
TTS_THREADS=8 ./build-tsan/tests/tts_serve_test
echo "== TSan: daemon degradation ladder, 50 repeats, 8 threads =="
# The ladder tests hold a worker inside a stand-in evaluator until
# the test opens a latch, never through a timed sleep; repeating them
# shows they are free of races and of flakes.
TTS_THREADS=8 ./build-tsan/tests/tts_serve_test \
    --gtest_filter='ServeDaemon.*' --gtest_repeat=50
echo "== TSan: multi-client socket soak, 8 sessions x 8 workers =="
# The mux/batcher/daemon stack under its most concurrent test: 8
# framed sessions (slow-client stalls, slow readers, disconnects,
# malformed frames from the serve fault plan) multiplexed onto 8
# workers.  Redundant with
# the full-suite lane above, but kept separate so a data race in the
# session mux is named by the lane that fails.
TTS_THREADS=8 ./build-tsan/tests/tts_serve_test \
    --gtest_filter='ServeMux.MultiClientSoak*:ServeBatch.*'

echo "== ASan+UBSan build (TTS_SANITIZE=address) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTTS_SANITIZE=address > /dev/null
cmake --build build-asan -j \
    --target tts_guard_test tts_util_test tts_workload_test \
    tts_pcm_test tts_thermal_test tts_fleet_test tts_plant_test \
    tts_serve_test tts_fault_test tts_opt_test > /dev/null

echo "== ASan: numerical guard + checkpoint resume + state codecs =="
./build-asan/tests/tts_guard_test
echo "== ASan: integrator + interpolation + kv_json + rng =="
./build-asan/tests/tts_util_test
echo "== ASan: cluster simulator save/restore + dead-server dispatch =="
./build-asan/tests/tts_workload_test \
    --gtest_filter='ClusterSim*:DcSimFaultInvariants.*'
echo "== ASan: PCM enthalpy curve + element (the kernel's lookups) =="
./build-asan/tests/tts_pcm_test
echo "== ASan: SoA thermal kernel + airflow memo =="
./build-asan/tests/tts_thermal_test
echo "== ASan: fleet checkpoint save/restore + slice stepping =="
./build-asan/tests/tts_fleet_test \
    --gtest_filter='FleetStep.*:FleetCheckpoint.*:-FleetCheckpoint.WarehouseResumeIsBitIdentical'
echo "== ASan: wax-placement search (trajectory memo + folds) =="
./build-asan/tests/tts_opt_test
echo "== ASan: plant runner kill/resume =="
./build-asan/tests/tts_plant_test --gtest_filter='RunPlant.*'
echo "== ASan: serve parsers (frame decoder, requests, manifests) =="
./build-asan/tests/tts_serve_test \
    --gtest_filter='ServeFraming.*:ServeProtocol.*:ServeManifest.*'
echo "== ASan: fault-schedule, weather-trace and trace-CSV parsers =="
./build-asan/tests/tts_fault_test --gtest_filter='FaultSchedule.*'
./build-asan/tests/tts_plant_test --gtest_filter='WeatherTrace.*'
./build-asan/tests/tts_workload_test --gtest_filter='TraceIo.*'

echo "OK"
