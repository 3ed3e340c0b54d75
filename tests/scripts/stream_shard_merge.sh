#!/usr/bin/env bash
# End-to-end sharding check against the real CLI binary: a 3-way
# round-robin shard of one scenario, merged, must be bit-identical to
# the unsharded run — results JSON and report CSV alike, at thread
# counts that run whole classes and that split them — and merging an
# incomplete shard set must fail naming the hole.
#
# Usage: stream_shard_merge.sh <memtherm-binary> <source-dir> <workdir>
set -euo pipefail

CLI=$1
SRC=$2
WORK=$3
SCENARIO="$SRC/examples/scenarios/dtm_sensitivity.json"

mkdir -p "$WORK"
cd "$WORK"
rm -f full.json full.csv merged.json shards.csv shard*.jsonl err.txt \
    bshard*.jsonl bmerged.json

"$CLI" run "$SCENARIO" --copies 1 --threads 1 -o full.json --quiet
"$CLI" report full.json --csv full.csv --quiet > /dev/null

for i in 1 2 3; do
    "$CLI" run "$SCENARIO" --copies 1 --threads 2 \
        --stream "shard$i.jsonl" --shard "$i/3" --quiet
done

"$CLI" merge shard1.jsonl shard2.jsonl shard3.jsonl -o merged.json --quiet
cmp full.json merged.json

# Report straight off the shard streams, no merge step needed.
"$CLI" report shard1.jsonl shard2.jsonl shard3.jsonl \
    --csv shards.csv --quiet > /dev/null
cmp full.csv shards.csv

# The same shards at 16 threads: each shard holds fewer classes than
# threads, so its classes split, and the merge must still be the same
# bytes.
for i in 1 2 3; do
    "$CLI" run "$SCENARIO" --copies 1 --threads 16 \
        --stream "bshard$i.jsonl" --shard "$i/3" --quiet
done
"$CLI" merge bshard1.jsonl bshard2.jsonl bshard3.jsonl -o bmerged.json \
    --quiet
cmp full.json bmerged.json

# A strict subset must fail loudly, naming the missing runs.
rc=0
"$CLI" merge shard1.jsonl shard3.jsonl --quiet 2> err.txt || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "FAIL: merging 2 of 3 shards should fail" >&2
    exit 1
fi
if ! grep -q "no record" err.txt; then
    echo "FAIL: incomplete-merge error should say 'no record':" >&2
    cat err.txt >&2
    exit 1
fi

echo "PASS: 3-way shard merge bit-identical (threads 2 and 16);" \
    "incomplete merge rejected"
