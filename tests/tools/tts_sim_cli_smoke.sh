#!/bin/sh
# End-to-end checks of the tts_sim command line on a small mixed
# fleet (48 servers, a quarter day, 2 perturbation events per
# server-day; well under a second):
#
#  - --metrics and --trace write their files, the metrics carry
#    fleet.control_steps, and the stderr profile table times the four
#    phases of a fleet step (fleet.step.events, .baselines, .rows,
#    .fold);
#  - the trace is byte-identical at TTS_THREADS=1 and 8, and holds
#    melt.refrozen events from the materialized rows' shard regions;
#  - --checkpoint=C --stop-after=7200 then --resume=C prints the
#    digest of an uninterrupted run;
#  - --stop-after=1000, off the 900 s checkpoint slice, pauses on the
#    1020 s control step (the checkpoint holds t = 1020), and the
#    resumed run prints the uninterrupted run's output byte for
#    byte;
#  - a bad checkpoint request is an `error:` with exit 1 for every
#    command: --checkpoint-every=0 with a file, --resume naming a
#    missing file (which must not be created), and --stop-after
#    with no file to save to;
#  - resilience --scenario=all prints all three canonical scenarios,
#    and refuses --checkpoint (with or without --stop-after) and
#    --resume rather than ignoring them;
#  - a small optimize --mixed search prints the same bytes at
#    TTS_THREADS=1 and 8, its counters included (arch_runs and
#    arch_memo_hits: archetype runs fanned out and served by the
#    trajectory memo).
#
#   tts_sim_cli_smoke.sh <path to tts_sim> <work directory>

set -eu

sim=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

fail() {
    echo "FAIL: $*"
    exit 1
}

fleet() {
    "$sim" fleet --servers=48 --days=0.25 --mixed --perturb-rate=2 "$@"
}

digest() {
    sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' "$1"
}

# Sinks, and the trace at two pool widths.
for t in 1 8; do
    TTS_THREADS=$t fleet --metrics="$dir/m$t.json" \
        --trace="$dir/t$t.jsonl" > "$dir/obs$t.out" 2> "$dir/obs$t.err" ||
        fail "fleet with sinks at TTS_THREADS=$t exited $?"
    [ -s "$dir/m$t.json" ] || fail "--metrics wrote nothing at $t threads"
    [ -s "$dir/t$t.jsonl" ] || fail "--trace wrote nothing at $t threads"
done
grep -q '"fleet.control_steps"' "$dir/m1.json" ||
    fail "metrics lack fleet.control_steps"
for phase in events baselines rows fold; do
    grep -q "^fleet\.step\.$phase " "$dir/obs1.err" ||
        fail "profile table lacks fleet.step.$phase"
done
grep -q '"kind":"melt.refrozen"' "$dir/t1.jsonl" ||
    fail "trace lacks melt.refrozen events"
cmp -s "$dir/t1.jsonl" "$dir/t8.jsonl" ||
    fail "trace differs between TTS_THREADS=1 and 8"

# Kill/resume against an uninterrupted run.
fleet > "$dir/full.out" || fail "uninterrupted fleet exited $?"
fleet --checkpoint="$dir/c.ckpt" --stop-after=7200 > "$dir/pause.out" ||
    fail "paused fleet exited $?"
[ -s "$dir/c.ckpt" ] || fail "--stop-after saved no checkpoint"
fleet --resume="$dir/c.ckpt" > "$dir/resume.out" ||
    fail "resumed fleet exited $?"
want=$(digest "$dir/full.out")
got=$(digest "$dir/resume.out")
[ -n "$want" ] || fail "no digest= in the uninterrupted run"
[ "$got" = "$want" ] ||
    fail "resumed digest '$got' is not the uninterrupted '$want'"

# A pause that falls inside a checkpoint slice stops on its own
# control step.
fleet --checkpoint="$dir/d.ckpt" --stop-after=1000 > "$dir/pause1000.out" ||
    fail "fleet paused at 1000 s exited $?"
grep -qx 't = 1020' "$dir/d.ckpt" ||
    fail "--stop-after=1000 did not pause on the 1020 s step"
fleet --resume="$dir/d.ckpt" > "$dir/resume1000.out" ||
    fail "fleet resumed from 1020 s exited $?"
cmp -s "$dir/resume1000.out" "$dir/full.out" ||
    fail "run resumed from 1020 s differs from the uninterrupted run"

# Bad checkpoint requests: `error:` and exit 1.
expect_error() {
    what=$1
    shift
    rc=0
    "$sim" "$@" > "$dir/err.out" 2> "$dir/err.txt" || rc=$?
    [ "$rc" = 1 ] || fail "$what: exit $rc, want 1"
    grep -q '^error: ' "$dir/err.txt" || fail "$what: no error: line"
}

expect_error "cooling --checkpoint-every=0" \
    cooling --checkpoint="$dir/f.ckpt" --checkpoint-every=0
for cmd in fleet resilience plant cooling; do
    expect_error "$cmd --resume of a missing file" \
        "$cmd" --servers=48 --days=0.25 --resume="$dir/nope.ckpt"
    [ ! -e "$dir/nope.ckpt" ] ||
        fail "$cmd --resume created the missing checkpoint"
    expect_error "$cmd --stop-after without a file" \
        "$cmd" --servers=48 --days=0.25 --stop-after=7200
done

"$sim" resilience --scenario=all > "$dir/all.out" ||
    fail "resilience --scenario=all exited $?"
for name in plant_trip_total partial_trip_sensor_drift crash_fan_storm; do
    grep -q "^$name " "$dir/all.out" ||
        fail "resilience --scenario=all lacks $name"
done
expect_error "resilience --scenario=all --checkpoint --stop-after" \
    resilience --scenario=all --checkpoint="$dir/all.ckpt" --stop-after=60
expect_error "resilience --scenario=all --checkpoint" \
    resilience --scenario=all --checkpoint="$dir/all.ckpt"
[ ! -e "$dir/all.ckpt" ] || fail "--scenario=all wrote a checkpoint"
expect_error "resilience --scenario=all --resume" \
    resilience --scenario=all --resume="$dir/c.ckpt"

# The wax-placement search fans out archetype runs per batch; its
# whole output is the same at any pool width.
for t in 1 8; do
    TTS_THREADS=$t "$sim" optimize --mixed --servers=12 --days=0.25 \
        --budget=12 --restarts=2 --perturb-rate=2 > "$dir/opt$t.out" ||
        fail "optimize at TTS_THREADS=$t exited $?"
done
grep -q '^# evals=.* arch_runs=[0-9]* arch_memo_hits=[0-9]* ' \
    "$dir/opt1.out" || fail "optimize lacks the archetype-run counters"
cmp -s "$dir/opt1.out" "$dir/opt8.out" ||
    fail "optimize differs between TTS_THREADS=1 and 8"
echo "PASS"
