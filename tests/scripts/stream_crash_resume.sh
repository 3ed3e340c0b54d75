#!/usr/bin/env bash
# End-to-end crash/resume check against the real CLI binary: a run
# killed mid-grid by fault injection (plus a torn trailing line, as a
# kill mid-append would leave) must resume to results bit-identical to
# an uninterrupted run, at thread counts that run whole classes and
# that split them.
#
# Usage: stream_crash_resume.sh <memtherm-binary> <source-dir> <workdir>
set -euo pipefail

CLI=$1
SRC=$2
WORK=$3
SCENARIO="$SRC/examples/scenarios/dtm_sensitivity.json"

mkdir -p "$WORK"
cd "$WORK"
rm -f full.json full.jsonl crash.jsonl resumed.json bcrash.jsonl \
    bresumed.json

"$CLI" run "$SCENARIO" --copies 1 --threads 1 -o full.json --quiet

rc=0
MEMTHERM_FAULT_AFTER_RUN=3 "$CLI" run "$SCENARIO" --copies 1 --threads 2 \
    --stream crash.jsonl --quiet || rc=$?
if [ "$rc" -ne 86 ]; then
    echo "FAIL: expected injected-crash exit code 86, got $rc" >&2
    exit 1
fi
if [ "$(grep -c '"type": "result"' crash.jsonl)" -ne 3 ]; then
    echo "FAIL: crashed stream should hold exactly 3 results" >&2
    exit 1
fi

# The torn trailing line a kill mid-append would leave (no newline).
printf '{"type": "result", "index": 9' >> crash.jsonl

"$CLI" run "$SCENARIO" --copies 1 --threads 2 \
    --stream crash.jsonl --resume -o resumed.json --quiet
cmp full.json resumed.json

# A second resume finds nothing left to do.
out=$("$CLI" run "$SCENARIO" --copies 1 --threads 2 \
    --stream crash.jsonl --resume)
case "$out" in
*"0 executed"*) ;;
*)
    echo "FAIL: re-resume should execute 0 runs; said: $out" >&2
    exit 1
    ;;
esac

# Again at 4 threads (the 8 classes run whole), resumed at 16 (fewer
# classes than threads, so they split): a crash loses at most the
# chunks in flight, and the resume reruns them to the same bytes.
rc=0
MEMTHERM_FAULT_AFTER_RUN=3 "$CLI" run "$SCENARIO" --copies 1 --threads 4 \
    --stream bcrash.jsonl --quiet || rc=$?
if [ "$rc" -ne 86 ]; then
    echo "FAIL: expected 4-thread injected-crash exit code 86, got $rc" >&2
    exit 1
fi
"$CLI" run "$SCENARIO" --copies 1 --threads 16 \
    --stream bcrash.jsonl --resume -o bresumed.json --quiet
cmp full.json bresumed.json

echo "PASS: crash + torn tail resumed to bit-identical results" \
    "(threads 2, and 4 resumed at 16)"
