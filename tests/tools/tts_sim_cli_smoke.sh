#!/bin/sh
# End-to-end checks of the tts_sim command line on a small mixed
# fleet (48 servers, a quarter day, 2 perturbation events per
# server-day; well under a second):
#
#  - --metrics and --trace write their files, and the metrics carry
#    fleet.control_steps;
#  - the trace is byte-identical at TTS_THREADS=1 and 8, and holds
#    melt.refrozen events from the materialized rows' shard regions;
#  - --checkpoint=C --stop-after=7200 then --resume=C prints the
#    digest of an uninterrupted run;
#  - a bad checkpoint request is an `error:` with exit 1 for every
#    command: --checkpoint-every=0 with a file, --resume naming a
#    missing file (which must not be created), and --stop-after
#    with no file to save to.
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
echo "PASS"
