#!/bin/sh
# A reply reader that goes away must end the stdio session, not the
# process.  Pipes 400 pipelined outage requests through
# `tts_serve stdio` into `head -c 5`, then checks that tts_serve
# exited 0, persisted its cache and wrote --stats with both the
# cache and the session-loop counters.
#
#   stdio_sigpipe_smoke.sh <path to tts_serve> <work directory>

set -eu

serve=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

i=0
: > "$dir/burst.frames"
while [ "$i" -lt 400 ]; do
    doc="{\"study\": \"outage\", \"servers\": 8, \"horizon_s\": $((60 + 15 * (i % 8)))}"
    printf 'tts-frame %d\n%s' "${#doc}" "$doc" >> "$dir/burst.frames"
    i=$((i + 1))
done

{
    rc=0
    "$serve" stdio --cache="$dir/c.ckpt" --stats="$dir/s.json" \
        < "$dir/burst.frames" || rc=$?
    echo "$rc" > "$dir/rc"
} | head -c 5 > /dev/null

rc=$(cat "$dir/rc")
if [ "$rc" != 0 ]; then
    echo "FAIL: tts_serve stdio exited $rc"
    exit 1
fi
if [ ! -s "$dir/c.ckpt" ]; then
    echo "FAIL: no cache snapshot at $dir/c.ckpt"
    exit 1
fi
for key in serve.cache.hits mux.replies_written; do
    if ! grep -q "\"$key\"" "$dir/s.json"; then
        echo "FAIL: --stats lacks $key"
        exit 1
    fi
done
echo "PASS"
