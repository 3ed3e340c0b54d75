#!/usr/bin/env bash
# A sparse trace on a bank grid warns once per command: `memtherm run
# --stream s.jsonl -o x.json` lowers the scenario to run it, and the
# merge behind -o re-reads the stream's embedded spec without reading
# the trace again, so stderr holds exactly one warning. `memtherm
# merge` of the finished stream needs no trace file at all.
#
# Usage: stream_sparse_warning.sh <memtherm-binary> <source-dir> <workdir>
set -euo pipefail

CLI=$1
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -f one.trace sparse.json s.jsonl x.json m.json err.txt

# One record: DIMM 0's whole DRAM power on one of the grid's 49 cells.
"$CLI" trace gen -o one.trace --count 1 > /dev/null
cat > sparse.json <<'JSON'
{"name": "sparse", "workloads": ["W1"], "policies": ["No-limit", "DTM-TS"],
 "config": {"thermal_model": {"grid_x": 7, "grid_z": 7},
            "trace": "one.trace", "copies_per_app": 1},
 "sweep": {"t_inlet": [40, 45]}}
JSON

"$CLI" run sparse.json --stream s.jsonl -o x.json --quiet 2> err.txt
warnings=$(grep -c 'warn: ' err.txt || true)
if [ "$warnings" -ne 1 ]; then
    echo "expected exactly one warning, got $warnings:" >&2
    cat err.txt >&2
    exit 1
fi
grep -q "fewer than the 49 bank cells" err.txt

# The merge of a finished stream reads neither the trace nor its
# warning, so it still works once the trace file is gone.
rm one.trace
"$CLI" merge s.jsonl -o m.json --quiet 2> err.txt
if [ -s err.txt ]; then
    echo "merge wrote to stderr:" >&2
    cat err.txt >&2
    exit 1
fi
cmp x.json m.json
