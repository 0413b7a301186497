#!/usr/bin/env bash
# The repo benchmark's `engine-direct` workload as an identity check.
# That workload drives a StripedClam on the simulated SSD from one
# caller, so for a given seed every number on the simulated clock and
# every count repeats exactly. This script runs it at seeds 1 and 2 and
# keeps each run's `metric` lines marked `[SimDuration]` or `[count]`,
# except `recovery.entries_recovered` and `proto.wire_bytes_per_op`,
# which follow how many operations the wall-clock window fitted.
#
#   scripts/identity.sh OUT_FILE      # writes the kept lines to OUT_FILE
#   scripts/identity.sh --check       # compares them with scripts/identity.txt
#
# `--check` exits 1 and prints the diff if any kept line differs. A
# change that should not move the simulated clock or a count (a
# refactor, a deletion) passes it; a change that does commits the new
# `scripts/identity.txt` in its own diff. Each run takes about half a
# minute on two vCPUs.
set -euo pipefail
if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_FILE | --check" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

identity() {
    for seed in 1 2; do
        echo "seed $seed"
        bash benchmark/run.sh --workload engine-direct --quick --trace 0 --seed "$seed" \
            --out-dir "$runs" >"$runs/seed-$seed.txt"
        grep -E '^metric .*\[(SimDuration|count)\]$' "$runs/seed-$seed.txt" |
            grep -vE '^metric (recovery\.entries_recovered|proto\.wire_bytes_per_op) '
    done
}

if [ "$1" = "--check" ]; then
    identity >"$runs/identity.txt"
    if ! diff -u scripts/identity.txt "$runs/identity.txt" >&2; then
        echo "engine-direct moved: the lines above differ from scripts/identity.txt" >&2
        exit 1
    fi
    echo "engine-direct matches scripts/identity.txt at seeds 1 and 2" >&2
else
    identity >"$1"
fi
